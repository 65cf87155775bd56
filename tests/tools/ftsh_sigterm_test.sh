#!/bin/sh
# SIGTERM must stop an ftsh, whatever it is doing, and leave nothing behind
# (the paper's nested-shell protocol, section 4).
#
#  1. An outer ftsh gives 1 second to an inner ftsh that retries a long
#     sleep.  The outer shell SIGTERMs the inner one at the deadline; the
#     inner shell must kill its sleep and start no further attempt.  No
#     process carrying the sleep's unique argument may survive.
#  2. An ftsh running a loop that starts no command must exit 143 within
#     2 seconds of SIGTERM.
#
# Every failure path kills what it finds first, so a failed run leaves no
# process behind.
#
# Usage: ftsh_sigterm_test.sh /path/to/ftsh

FTSH="$1"
if [ -z "$FTSH" ] || [ ! -x "$FTSH" ]; then
  echo "usage: $0 /path/to/ftsh" >&2
  exit 2
fi

failed=0

# Unique per run: 61.<pid> seconds.
MARK="61.$$"
"$FTSH" -c "try for 1 seconds
  $FTSH -c 'try 5 times
  sleep $MARK
end'
end" 2>/dev/null
sleep 1
if pgrep -f "sleep $MARK" >/dev/null; then
  pkill -KILL -f "sleep $MARK"
  echo "FAIL: a retried command outlived its SIGTERMed ftsh" >&2
  failed=1
else
  echo "OK: the SIGTERMed ftsh stopped retrying and left nothing behind"
fi

"$FTSH" -c 'i = 0
while true
  i = ${i} .add. 1
end' &
pid=$!
sleep 0.3
kill -TERM "$pid"
waited=0
while kill -0 "$pid" 2>/dev/null && [ "$waited" -lt 20 ]; do
  sleep 0.1
  waited=$((waited + 1))
done
if kill -0 "$pid" 2>/dev/null; then
  kill -KILL "$pid"
  wait "$pid"
  echo "FAIL: a command-free ftsh loop ignored SIGTERM" >&2
  failed=1
else
  wait "$pid"
  rc=$?
  if [ "$rc" -ne 143 ]; then
    echo "FAIL: SIGTERMed ftsh exited $rc, expected 143" >&2
    failed=1
  else
    echo "OK: a command-free ftsh loop exited 143 on SIGTERM"
  fi
fi
exit "$failed"
