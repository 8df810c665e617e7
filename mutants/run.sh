#!/usr/bin/env bash
# Mutation gate: each mutants/NN-name.patch is a deliberate defect that the
# tests it names must catch.
#
# A patch opens with a description and one or more header lines ahead of its
# diff (`git apply` skips everything before the first `diff --git`):
#
#     Kill: <arguments to `cargo test --release`>
#
# For each patch the runner checks HEAD out into a temporary worktree,
# applies the patch, builds every named test target, then runs them in
# order. The patch is killed when a named test fails. The gate fails when a
# patch no longer applies, when its mutant does not build, or when every
# named test passes (a survivor).
#
# Usage: mutants/run.sh [PATCH...]    (default: every mutants/*.patch)
#
# Offline; needs no cargo-mutants. All builds share one CARGO_TARGET_DIR
# (default: target/mutants). The worktree's files get an old mtime before
# the patch is applied, so cargo rebuilds only the crates a patch touches
# and those that depend on them.
set -u

root=$(git rev-parse --show-toplevel) || exit 2
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
[ $# -gt 0 ] || set -- "$root"/mutants/*.patch

failed=0
for patch in "$@"; do
    patch=$(realpath "$patch")
    name=$(basename "$patch" .patch)
    mapfile -t kills < <(sed -n 's/^Kill: //p' "$patch")
    if [ ${#kills[@]} -eq 0 ]; then
        echo "FAIL  $name: no 'Kill:' header"
        failed=1
        continue
    fi
    wt=$(mktemp -d "${TMPDIR:-/tmp}/mutant.XXXXXX")
    log="$wt.log"
    git -C "$root" worktree add --quiet --detach "$wt" HEAD
    (cd "$wt" && git ls-files -z | xargs -0 touch -d '2000-01-01 00:00:00')
    verdict=survived
    if ! git -C "$wt" apply "$patch" 2>"$log"; then
        verdict="does not apply"
    else
        for args in "${kills[@]}"; do
            # shellcheck disable=SC2086 # a header line is a word list
            if ! (cd "$wt" && cargo test --release --offline --no-run $args) >>"$log" 2>&1; then
                verdict="does not build"
                break
            fi
        done
        if [ "$verdict" = survived ]; then
            for args in "${kills[@]}"; do
                # shellcheck disable=SC2086
                if ! (cd "$wt" && cargo test --release --offline $args) >>"$log" 2>&1; then
                    verdict="killed by: cargo test $args"
                    break
                fi
            done
        fi
    fi
    case "$verdict" in
        killed*)
            echo "ok    $name: $verdict"
            grep -E '^test .* FAILED$' "$log" | sed 's/^/        /'
            ;;
        *)
            echo "FAIL  $name: $verdict"
            tail -n 20 "$log" | sed 's/^/        /'
            failed=1
            ;;
    esac
    git -C "$root" worktree remove --force "$wt"
    rm -f "$log"
done
exit $failed
