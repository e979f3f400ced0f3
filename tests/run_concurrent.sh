#!/bin/sh
# Runs COPIES concurrent instances of one test command and fails if any
# instance fails. Concurrency races that need CPU contention to show (the
# seqlock's stale-slot interleaving) surface this way where one copy on an
# idle machine passes.
#
#   run_concurrent.sh COPIES COMMAND [ARGS...]
copies=$1
shift
pids=""
i=0
while [ "$i" -lt "$copies" ]; do
  "$@" &
  pids="$pids $!"
  i=$((i + 1))
done
status=0
for pid in $pids; do
  wait "$pid" || status=1
done
exit $status
