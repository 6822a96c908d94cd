#!/bin/sh
# Run synth -> classify -> image -> compare on every configs/*.json of the
# source tree SRC and keep all outputs under OUT/<config name>/, together
# with each command's stdout, stderr and exit status (<command>.log).
# Two trees' outputs can then be compared with `diff -r`.
#
# Usage: tools/run_configs.sh SRC OUT
#
# The noise seed is fixed (MSIMG_SEED=7) and BLAS runs on one thread, so a
# tree gives the same bytes run to run.  compare scores each 2D field CSV;
# image writes only slice planes of a 3D grid, which compare cannot score.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 SRC OUT" >&2; exit 2; }
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$src/src" MSIMG_SEED=7 OMP_NUM_THREADS=1 \
    OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

run() {  # run LOG ARGS...: one msimg command, its output kept in LOG
    log=$1
    shift
    status=0
    python3 -m msimg.cli "$@" >"$log.stdout" 2>"$log.stderr" || status=$?
    { cat "$log.stdout"; echo "--- stderr"; cat "$log.stderr";
      echo "--- exit $status"; } >"$log"
    rm -f "$log.stdout" "$log.stderr"
}

for cfg in "$src"/configs/*.json; do
    name=$(basename "$cfg" .json)
    mkdir -p "$name"
    # relative paths, so printed paths match between trees
    run "$name/synth.log" synth --config "$cfg" --out "$name"
    run "$name/classify.log" classify --config "$cfg" --out "$name"
    run "$name/image.log" image --config "$cfg" --data "$name" --out "$name"
    if python3 -c 'import json, sys
sys.exit(len(json.load(open(sys.argv[1]))["grid"]["bounds"]) != 2)' "$cfg"
    then
        for field in "$name"/field_*.csv; do
            stem=${field%.csv}
            run "$stem.compare.log" compare --config "$cfg" \
                --field "$field" --out "$stem.compare.json"
        done
    fi
done
