#!/usr/bin/env bash
# docs-verify: extract every ```sh code fence from README.md,
# docs/ADVISOR.md, docs/SERVICE.md, and docs/TIERS.md and execute the
# commands in order, so the documented quickstarts cannot rot. Commands run from the
# repository root in one shell (later commands may read files earlier
# ones wrote, e.g. the iosim -trace / iotrace advise pair); the first
# failure fails the run, and so does any file the commands leave behind
# in the tree. Long-running foreground examples (like the iosimd
# daemon quickstart) and commands that write into the tree (make
# bench-json) use ```bash fences, which are documentation only.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

{
    echo 'set -euo pipefail'
    for doc in README.md docs/ADVISOR.md docs/SERVICE.md docs/TIERS.md; do
        echo "echo \"### commands from $doc\""
        awk '/^```sh$/ { f = 1; next } /^```$/ { f = 0 } f' "$doc"
    done
} >"$tmp"

before=$(git status --porcelain)
bash "$tmp"

# A documented command must not leave files in the tree: anything it
# writes belongs under /tmp or in .gitignore. On a clean checkout (CI)
# this fails on any `git status` output; a local run with edits in
# progress fails only on what the commands added.
after=$(git status --porcelain)
if [ "$after" != "$before" ]; then
    echo "docs-verify: documented commands left the tree dirty:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    exit 1
fi
echo "docs-verify: all documented commands ran cleanly"
