#!/bin/sh
# The experiment index (DESIGN.md section 2): one bin/ CLI line per figure
# or table of the paper's evaluation and of docs/TUNING.md.
#
#   sh bench/experiments.sh BINDIR           the scaled defaults (make bench)
#   sh bench/experiments.sh --smoke BINDIR   every line once at tiny scale,
#                                            output kept only on failure
#
# BINDIR holds the built CLIs (_build/default/bin).  The script stops at
# the first line that exits non-zero: sssp.exe and bnb.exe exit 1 on a
# wrong answer, sched.exe on a lost or doubled task.  quality.exe
# rewrites BENCH_quality.json on every run, so the A1 line-up runs last
# of the quality lines.  DESIGN.md section 2 gives the paper-scale
# arguments of each line.
set -e

smoke=
if [ "$1" = --smoke ]; then
  smoke=1
  shift
fi
bin=${1:?usage: experiments.sh [--smoke] BINDIR}

if [ -n "$smoke" ]; then
  fig3_left="--prefill 200 --ops 400"
  fig3_right=$fig3_left
  tuning=$fig3_left
  quality=$fig3_left
  pulls="--prefill 200 --ops 100"
  workload=$fig3_left
  nodes=40
  tasks=10
  size=12
else
  fig3_left="--prefill 10000 --ops 40000"
  fig3_right="--prefill 100000 --ops 40000"
  tuning="--prefill 8000 --ops 16000"
  quality=
  pulls="--ops 4000"
  workload="--prefill 10000 --ops 30000"
  nodes=600
  tasks=300
  size=30
fi

lines=0
run() {
  lines=$((lines + 1))
  if [ -n "$smoke" ]; then
    out=$("$@" 2>&1) || {
      printf '%s\n' "$out"
      echo "experiment index: failed: $*"
      exit 1
    }
  else
    "$@"
  fi
}

sharded="--impl klsm:256 --impl klsm-sharded:256:2 --impl klsm-sharded:256:4
  --impl klsm-sharded:1024:4 --impl klsm-sharded:1024:8"

# Figure 3, left and right panels.
run "$bin/throughput.exe" --threads 1,2,5,10,20,40,80 $fig3_left --reps 1
run "$bin/throughput.exe" --threads 1,2,5,10,20,40,80 $fig3_right --reps 1
# Figure 4, left and right panels: graph seed 42, queue seed 1.
run "$bin/sssp.exe" --sweep threads --nodes $nodes --relaxation 256 \
  --seed 42 --queue-seed 1
run "$bin/sssp.exe" --sweep k --threads-fixed 10 --nodes $nodes \
  --seed 42 --queue-seed 1
# docs/TUNING.md: the stripe sweep.
run "$bin/throughput.exe" --threads 1,2,4,8,16 $tuning --reps 1 $sharded
run "$bin/quality.exe" $quality $sharded
# Pulls of 8 over the stripe line-up (a pull takes up to 8 keys, an insert
# adds one, so the operation count stays within the prefill).
run "$bin/quality.exe" $pulls --batch 8 $sharded
# A1: rank error against the bound rho.
run "$bin/quality.exe" $quality
# The queues as scheduler backbones.
run "$bin/sched.exe" --threads 8 --tasks $tasks --service uniform:64 \
  --fanout 2 --depth 2 --queue klsm:256 --queue klsm:4 --queue multiq:2 \
  --queue linden --queue heap
# A5: key-distribution sensitivity.
for w in uniform ascending descending clustered; do
  run "$bin/throughput.exe" --threads 10 $workload --reps 1 --impl heap \
    --impl multiq:2 --impl klsm:256 --impl dlsm --workload $w
done
# Branch and bound: threads at k = 64, then k at T = 10.
run "$bin/bnb.exe" --size $size --threads 1,2,5,10,20,40 --relaxation 64
for k in 0 4 64 1024 16384; do
  run "$bin/bnb.exe" --size $size --threads 10 --relaxation $k
done

if [ -n "$smoke" ]; then
  echo "experiment index: $lines CLI lines OK"
fi
