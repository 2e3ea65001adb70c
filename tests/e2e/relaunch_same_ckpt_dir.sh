#!/bin/sh
# Relaunches a clean 3-rank cluster_procs fleet into one --ckpt-dir five
# times; every launch must seal all generations and restore the last one.
# A relaunch whose ranks read the previous launch's <ckpt-dir>.port dial a
# dead port and never join ("only 0/3 ranks joined"); moc_launcher removes
# the stale port files before it forks.
#
# Usage: relaunch_same_ckpt_dir.sh <moc_launcher> <cluster_procs> <work-dir>
set -eu
launcher=$1
binary=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
for i in 1 2 3 4 5; do
    out="$work/launch$i.txt"
    if ! "$launcher" --binary "$binary" --ranks 3 --events 3 \
        --ckpt-dir "$work/ckpt" --timeout-s 60 >"$out" 2>&1; then
        echo "launch $i into a reused --ckpt-dir failed:"
        cat "$out"
        exit 1
    fi
    if ! grep -q "gauntlet: OK" "$out" ||
        ! grep -q "recovered generation=3 shards=15 damaged=0 missing=0" "$out"; then
        echo "launch $i did not seal and restore:"
        cat "$out"
        exit 1
    fi
done
echo "5 launches into $work/ckpt sealed and restored"
