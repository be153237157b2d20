#!/usr/bin/env bash
# End-to-end crash recovery: a journaled session killed mid-run by
# --crash-after must (a) die with the kill exit code, (b) resume from its
# journal without re-asking any answered question, and (c) converge to the
# same query as an uninterrupted run under the same seed.  That holds for
# a noisy or refusing simulated user too, on every engine: its reply to a
# question is keyed by the question, not by how many were asked before.
set -u

EXE="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() { echo "crash_resume: $*" >&2; exit 1; }

questions_of() { sed -n 's/^questions: \([0-9]*\),.*/\1/p' "$1"; }
replayed_of() { sed -n 's/.*replayed: \([0-9]*\),.*/\1/p' "$1"; }
retried_of() { sed -n 's/.*retried: \([0-9]*\).*/\1/p' "$1"; }
learned_of() { grep '^learned' "$1"; }

# check NAME EXACT CMD...: run CMD uninterrupted, then journaled and killed
# after half its answers, then resumed.  The resumed run must learn the
# same query.  With EXACT=1 (every ask answered, so the kill count is the
# answer count) it must also replay exactly the answers paid for before
# the kill and ask exactly the rest live.
check() {
  local name=$1 exact=$2
  shift 2
  local out="$tmp/$name"
  "$@" > "$out.full" 2> /dev/null || fail "$name: reference run failed"
  local full_q
  full_q=$(questions_of "$out.full")
  [ -n "$full_q" ] || fail "$name: reference run printed no question count"
  [ "$full_q" -ge 2 ] \
    || fail "$name: reference run too short ($full_q questions) to crash mid-way"
  learned_of "$out.full" > /dev/null || fail "$name: reference run learned nothing"

  local k=$(( full_q / 2 ))
  "$@" --journal "$out.wal" --crash-after "$k" > "$out.crash" 2> /dev/null
  local status=$?
  [ "$status" -eq 137 ] || fail "$name: crash run exited $status, expected 137"
  [ -s "$out.wal" ] || fail "$name: crash run left no journal"

  "$@" --journal "$out.wal" --resume > "$out.resume" 2> /dev/null \
    || fail "$name: resume run failed"

  if [ "$exact" -eq 1 ]; then
    local replayed resumed_q
    replayed=$(replayed_of "$out.resume")
    resumed_q=$(questions_of "$out.resume")
    [ "$replayed" -eq "$k" ] \
      || fail "$name: resume replayed $replayed answers, expected the $k paid for before the crash"
    [ $(( resumed_q + replayed )) -eq "$full_q" ] \
      || fail "$name: resume asked $resumed_q live questions after $replayed replays; uninterrupted run took $full_q — some question was re-asked or lost"
  fi

  diff <(learned_of "$out.full") <(learned_of "$out.resume") > /dev/null \
    || fail "$name: resumed session learned a different query:
  full:    $(learned_of "$out.full")
  resumed: $(learned_of "$out.resume")"

  echo "crash_resume: $name ok (crashed after $k/$full_q answers, resumed to the same query)"
}

"$EXE" xmark --scale 2 --seed 3 > "$tmp/doc.xml" || fail "doc generation failed"
"$EXE" xmark --scale 0.3 --seed 3 > "$tmp/small.xml" || fail "doc generation failed"
goal='//person[profile/education]/name'
twig() { "$EXE" learn-twig "$1" --goal "$goal" --interactive "${@:2}"; }

# A reliable user.
check twig 1 twig "$tmp/doc.xml" --seed 7

# A noisy user: every ask is answered, some wrongly.
noise=(--noise 0.1)
check noisy-twig 1 twig "$tmp/small.xml" --seed 1 "${noise[@]}"
check noisy-join 1 "$EXE" learn-join --rows 10 --seed 2 "${noise[@]}"
check noisy-random-join 1 "$EXE" learn-join --rows 10 --seed 2 --strategy random "${noise[@]}"
check noisy-path 1 "$EXE" learn-path --seed 1 "${noise[@]}"

# A noisy user who also refuses and times out, so questions are retried.
faults=(--noise 0.1 --refusal 0.2 --timeout-rate 0.1)
check flaky-twig 0 twig "$tmp/small.xml" --seed 6 "${faults[@]}"
check flaky-join 0 "$EXE" learn-join --rows 10 --seed 2 "${faults[@]}"
check flaky-path 0 "$EXE" learn-path --seed 1 "${faults[@]}"
for name in flaky-twig flaky-join flaky-path; do
  [ "$(retried_of "$tmp/$name.full")" -gt 0 ] 2> /dev/null \
    || fail "$name: the reference run retried no question"
done
