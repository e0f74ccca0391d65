#!/usr/bin/env bash
# Compare tools/output_digest.py and tools/api_surface.py between a git ref
# and the working tree.
#
#   tools/digest_diff.sh [--coords-only] [REF]
#
# REF (default HEAD) is extracted with `git archive` into a temporary
# directory. The working tree's output_digest.py and api_surface.py run in
# both trees, so both print the same commands and read the same names, with
# BLAS pinned to one thread and no bytecode written. The script prints
# `diff REF tree` of the digests, then of the API surfaces, and exits 1 on a
# difference in either; last, on stderr, the source size (the total of
# `wc -l src/symrig/*.py`) at REF and in the working tree. With
# --coords-only it compares only the argv, the exit code and the last
# column (the hash with coordinates removed) of each digest line, for a
# change meant to move coordinates only. Nothing is written inside the
# repository.
set -euo pipefail

coords_only=0
ref=HEAD
for arg in "$@"; do
    case "$arg" in
        --coords-only) coords_only=1 ;;
        -h | --help) sed -n '2,17p' "$0" | cut -c3-; exit 0 ;;
        -*) echo "digest_diff.sh: unknown option $arg" >&2; exit 2 ;;
        *) ref=$arg ;;
    esac
done

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"
mkdir -p "$work/ref/tools"
cp "$root/tools/output_digest.py" "$root/tools/api_surface.py" "$work/ref/tools/"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1
python3 "$work/ref/tools/output_digest.py" > "$work/ref.txt"
python3 "$root/tools/output_digest.py" > "$work/tree.txt"
python3 "$work/ref/tools/api_surface.py" > "$work/ref.api"
python3 "$root/tools/api_surface.py" > "$work/tree.api"

if [ "$coords_only" = 1 ]; then
    for side in ref tree; do
        awk '{$(NF-1) = ""; print}' "$work/$side.txt" > "$work/$side.cut"
        mv "$work/$side.cut" "$work/$side.txt"
    done
fi
status=0
echo "$(wc -l < "$work/tree.txt") digest lines, $ref against the working tree" >&2
diff "$work/ref.txt" "$work/tree.txt" || status=1
echo "$(wc -l < "$work/tree.api") API lines, $ref against the working tree" >&2
diff "$work/ref.api" "$work/tree.api" || status=1
echo "wc -l src/symrig/*.py: $(cat "$work"/ref/src/symrig/*.py | wc -l) at $ref, $(cat "$root"/src/symrig/*.py | wc -l) in the working tree" >&2
exit "$status"
