#!/bin/sh
# The answer memo is gone, and its flags with it:
#  - both tools accept --no-memo at any position, and it changes no byte of
#    the study, fault-sweep and solve JSONL or of their exit codes;
#  - --memo-bytes is an unknown flag: exit 2, with a message naming it.
#
# Usage: cli_no_memo.sh FLEXRT_DESIGN FLEXRTD TASKFILE
# Run it in a scratch directory: it writes its outputs and a socket there.
set -u
design=$1
daemon=$2
ex=$3
fail() {
  echo "FAIL: $*"
  exit 1
}

# runs OUT ARGS...: the tool's stdout into OUT; sets rc to its exit code.
runs() {
  out=$1
  shift
  rc=0
  "$@" > "$out" || rc=$?
}

# fleet ARGS...: a subcommand and its fleet, as the tests below ask it.
for fleet in "study --trials 40 --seed 3" \
             "fault-sweep --trials 30 --seed 5" \
             "solve $ex"; do
  # shellcheck disable=SC2086  # the fleet is a word list on purpose
  set -- $fleet
  sub=$1
  shift
  runs plain.jsonl "$design" "$sub" "$@" --jsonl --no-wall
  want=$rc
  runs first.jsonl "$design" --no-memo "$sub" "$@" --jsonl --no-wall
  test "$rc" -eq "$want" || fail "--no-memo $fleet: exit $rc, not $want"
  runs middle.jsonl "$design" "$sub" --no-memo "$@" --jsonl --no-wall
  test "$rc" -eq "$want" || fail "$sub --no-memo: exit $rc, not $want"
  runs last.jsonl "$design" "$sub" "$@" --jsonl --no-wall --no-memo
  test "$rc" -eq "$want" || fail "$fleet --no-memo: exit $rc, not $want"
  for at in first middle last; do
    cmp plain.jsonl "$at.jsonl" || fail "$fleet: --no-memo $at changes bytes"
  done
done

# --memo-bytes N is an unknown flag wherever it stands.
for args in "--memo-bytes 1 study --trials 1 --jsonl" \
            "study --trials 1 --jsonl --memo-bytes 1"; do
  # shellcheck disable=SC2086
  "$design" $args > /dev/null 2> err.txt
  rc=$?
  test "$rc" -eq 2 || fail "flexrt_design $args: exit $rc, not 2"
  grep -q -e "--memo-bytes" err.txt || fail "flexrt_design $args: $(cat err.txt)"
done
"$daemon" --memo-bytes 1 --port 0 > /dev/null 2> err.txt
rc=$?
test "$rc" -eq 2 || fail "flexrtd --memo-bytes 1: exit $rc, not 2"
grep -q -e "--memo-bytes" err.txt || fail "flexrtd --memo-bytes 1: $(cat err.txt)"

# The daemon with --no-memo before or after its other flags, and without
# it: every remote report equals the offline one in bytes and exit code.
sock=./no_memo.sock
for flags in "--socket $sock" "--no-memo --socket $sock" \
             "--socket $sock --no-memo"; do
  rm -f "$sock"
  # shellcheck disable=SC2086
  "$daemon" $flags > daemon.log 2>&1 &
  pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' daemon.log && break
    sleep 0.1
  done
  grep -q 'listening on' daemon.log || fail "flexrtd $flags: $(cat daemon.log)"
  for fleet in "study --trials 40 --seed 3" \
               "fault-sweep --trials 30 --seed 5" \
               "solve $ex"; do
    # shellcheck disable=SC2086
    runs offline.jsonl "$design" $fleet --jsonl --no-wall
    want=$rc
    # shellcheck disable=SC2086
    runs remote.jsonl "$design" remote "$sock" $fleet
    test "$rc" -eq "$want" || fail "flexrtd $flags, $fleet: exit $rc, not $want"
    cmp offline.jsonl remote.jsonl || fail "flexrtd $flags, $fleet: bytes differ"
  done
  kill -TERM "$pid"
  wait "$pid" || fail "flexrtd $flags: exit $? after SIGTERM"
done
echo "--no-memo changes no byte; --memo-bytes is an unknown flag"
