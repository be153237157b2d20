"""Fail unless each named key of a bench JSON file is exactly true.

usage: python3 bench/gates.py FILE KEY MESSAGE [KEY MESSAGE ...]

A KEY may be a dotted path into nested objects (journal.replay_ok).  The
file is parsed as JSON, so compact and pretty-printed output gate alike.
Each key that is missing or not the JSON literal true prints its MESSAGE;
any failure then prints the file and exits 1.
"""

import json
import sys


def lookup(data, key):
    for part in key.split("."):
        if not isinstance(data, dict) or part not in data:
            return None
        data = data[part]
    return data


def main(argv):
    if len(argv) < 4 or len(argv) % 2 != 0:
        sys.exit(__doc__)
    path, pairs = argv[1], argv[2:]
    with open(path) as f:
        text = f.read()
    data = json.loads(text)
    failed = [
        msg
        for key, msg in zip(pairs[::2], pairs[1::2])
        if lookup(data, key) is not True
    ]
    for msg in failed:
        print(msg)
    if failed:
        print(text)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
