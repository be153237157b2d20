"""Fail unless a bench JSON file passes its gates.

usage: python3 bench/gates.py FILE KEY MESSAGE [KEY MESSAGE ...]
       python3 bench/gates.py FILE --drift BASELINE KEY FACTOR SLACK MESSAGE

The first form: each named KEY must be exactly true.  A KEY may be a
dotted path into nested objects (journal.replay_ok).  The file is parsed
as JSON, so compact and pretty-printed output gate alike.  Each key that
is missing or not the JSON literal true prints its MESSAGE.

The second form compares FILE against a committed BASELINE file: the
number at KEY must be at most FACTOR x the baseline's + SLACK.  It prints
both numbers and the bound, and MESSAGE when the bound is broken.

Any failure then prints the file and exits 1.
"""

import json
import sys


def lookup(data, key):
    for part in key.split("."):
        if not isinstance(data, dict) or part not in data:
            return None
        data = data[part]
    return data


def load(path):
    with open(path) as f:
        text = f.read()
    return text, json.loads(text)


def true_gates(data, pairs):
    return [
        msg
        for key, msg in zip(pairs[::2], pairs[1::2])
        if lookup(data, key) is not True
    ]


def drift_gate(data, baseline_path, key, factor, slack, msg):
    _, base = load(baseline_path)
    new, old = lookup(data, key), lookup(base, key)
    if not isinstance(new, (int, float)) or not isinstance(old, (int, float)):
        return [f"{key}: not a number in both files; {msg}"]
    allowed = float(factor) * old + float(slack)
    print(f"{key}: baseline {old:.1f}, this run {new:.1f}, allowed {allowed:.1f}")
    return [msg] if new > allowed else []


def main(argv):
    if len(argv) == 8 and argv[2] == "--drift":
        path = argv[1]
        text, data = load(path)
        failed = drift_gate(data, *argv[3:])
    elif len(argv) >= 4 and len(argv) % 2 == 0 and "--drift" not in argv:
        path, pairs = argv[1], argv[2:]
        text, data = load(path)
        failed = true_gates(data, pairs)
    else:
        sys.exit(__doc__)
    for msg in failed:
        print(msg)
    if failed:
        print(text)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
