#!/bin/sh
# check_docs.sh — markdown link check + light lint for the repo docs.
#
# Checks every markdown file in the repo root and docs/:
#   1. every relative link target [text](path) exists (anchors and
#      external http(s)/mailto links are skipped);
#   2. no file references DESIGN.md/EXPERIMENTS.md-style ghosts: any
#      `something.md` mentioned in a markdown file must exist;
#   3. lint: no trailing whitespace, no hard tabs.
#
# (The generated results book, docs/RESULTS.md, has its own drift gate:
# the check_results_book ctest entry.)
#
# Usage: tools/check_docs.sh [repo-root]   (defaults to the script's
# parent directory).  Exit 0 = clean; every finding is printed.

set -u
root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root" || exit 2

fail=0
note() {
    echo "check_docs: $1"
    fail=1
}

files=$(ls ./*.md docs/*.md 2>/dev/null)
[ -n "$files" ] || { echo "check_docs: no markdown files found"; exit 2; }

for f in $files; do
    dir=$(dirname "$f")

    # 1. Relative markdown links must resolve.
    # Extract every (...) target of a [..](..) link, one per line.
    grep -o '\[[^]]*\]([^)]*)' "$f" 2>/dev/null |
        sed 's/.*(\([^)]*\))/\1/' |
        while IFS= read -r target; do
            case "$target" in
              http://*|https://*|mailto:*|\#*) continue ;;
            esac
            path=${target%%#*}
            [ -n "$path" ] || continue
            if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
                echo "BROKEN $f -> $target"
            fi
        done > /tmp/check_docs_links.$$ 2>/dev/null
    if [ -s /tmp/check_docs_links.$$ ]; then
        cat /tmp/check_docs_links.$$
        fail=1
    fi
    rm -f /tmp/check_docs_links.$$

    # 3. Lint: trailing whitespace and hard tabs, outside fenced code
    # blocks (quoted code keeps its own whitespace).
    lint=$(awk '
        /^```/ { fence = !fence; next }
        fence { next }
        /[ \t]$/ { printf "%d(trailing-ws) ", NR }
        /\t/ { printf "%d(tab) ", NR }
    ' "$f")
    if [ -n "$lint" ]; then
        note "$f: lint: $lint"
    fi
done

# 2. Ghost-document check: every FOO.md mentioned in the *living*
# documentation (README + docs/) must exist in the repo.  Historical
# records (CHANGES.md, ISSUE.md, ...) are exempt — a changelog may
# legitimately name documents that were removed.  The token must be a
# clean path shape (word-character segments, non-empty stem), so prose
# fragments don't false-positive.
living=$(ls README.md docs/*.md 2>/dev/null)
for name in $(grep -hoE '([A-Za-z0-9_-]+/)*[A-Za-z0-9_-]+\.md' $living | sort -u); do
    base=$(basename "$name")
    if [ ! -e "$name" ] && [ ! -e "docs/$base" ] && [ ! -e "$base" ]; then
        note "dangling document reference: $name"
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "check_docs: OK ($(echo "$files" | wc -w | tr -d ' ') files)"
fi
exit "$fail"
