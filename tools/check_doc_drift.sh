#!/usr/bin/env bash
# Doc-drift lint: every `--flag` the docs show on a line mentioning
# `saintdroid` must still appear in `saintdroid --help` output. Docs and
# the CLI otherwise drift apart silently — a renamed or removed flag keeps
# living in prose long after the binary stopped accepting it.
#
# Usage: tools/check_doc_drift.sh <saintdroid-binary> [doc.md|docs-dir]...
# (default: docs README.md). A directory contributes its *.md files.
set -euo pipefail

bin="${1:?usage: check_doc_drift.sh <saintdroid-binary> [doc.md|docs-dir]...}"
shift
[[ $# -gt 0 ]] || set -- docs README.md

help_text="$("$bin" --help)"
if [[ -z "$help_text" ]]; then
  echo "doc-drift: '$bin --help' printed nothing" >&2
  exit 1
fi

docs=()
for path in "$@"; do
  if [[ -d "$path" ]]; then
    docs+=("$path"/*.md)
  elif [[ -e "$path" ]]; then
    docs+=("$path")
  else
    echo "doc-drift: no such doc or directory '$path'" >&2
    exit 1
  fi
done

status=0
for doc in "${docs[@]}"; do
  [[ -e "$doc" ]] || continue
  # Only lines that actually mention the CLI: flags in prose about other
  # tools (cmake, ctest) are none of our business.
  while IFS= read -r flag; do
    if ! grep -qF -- "$flag" <<< "$help_text"; then
      echo "doc-drift: $doc references flag '$flag' that" \
           "'saintdroid --help' does not print" >&2
      status=1
    fi
  done < <(grep -h 'saintdroid' "$doc" |
           grep -oE -e '--[a-z][a-z-]*' | sort -u)
done

if [[ "$status" == 0 ]]; then
  echo "doc-drift: OK (${#docs[@]} docs; flags all present in --help)"
fi
exit "$status"
