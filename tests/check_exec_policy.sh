#!/bin/sh
# Exec dispatch-policy lint (DESIGN.md §8).
#
# Whether a parallel region is worth dispatching is decided in one place:
# of::exec sizes every region by the work per item its caller states and
# runs it inline below exec::kChunkWork. This check fails when a file under
# src/ outside src/exec/ takes that decision back: by gating on the pool's
# thread count, or by declaring its own parallel cutoff or threshold. To
# change when regions dispatch, change src/exec/pool.hpp.
#
# Usage: check_exec_policy.sh <repo-root>
set -eu

repo=${1:?usage: check_exec_policy.sh <repo-root>}
src="$repo/src"
[ -d "$src/exec" ] || { echo "check_exec_policy: missing $src/exec" >&2; exit 1; }

# Thread-count gates: any read of the pool's thread count (`.threads()` on
# Pool::global() or on a Pool reference).
gate='(Pool::global\(\)|[Pp]ool[A-Za-z_]*)(\.|->)threads\(\)'
# Caller-side cutoffs: a constant or predicate named for a parallel (or
# dispatch) size limit, e.g. kParallelCutoff, kAggParallelCutoff,
# parallel_worthwhile, agg_parallel.
cutoff='[Pp]arallel[A-Za-z0-9_]*([Cc]utoff|[Tt]hreshold|[Ww]orthwhile)|[Dd]ispatch[A-Za-z0-9_]*([Cc]utoff|[Tt]hreshold)|agg_parallel'

found=$(grep -rnE "$gate|$cutoff" "$src" --include='*.cpp' --include='*.hpp' \
  | grep -v "^$src/exec/" || true)

if [ -n "$found" ]; then
  echo "check_exec_policy: dispatch decisions outside src/exec/:" >&2
  echo "$found" | sed "s|^$repo/|  |" >&2
  echo "  State the work per item to Pool::parallel_for / run_chunks /" >&2
  echo "  parallel_reduce instead; the pool decides inline vs dispatch." >&2
  exit 1
fi
echo "check_exec_policy: ok"
