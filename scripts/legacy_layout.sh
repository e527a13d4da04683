#!/usr/bin/env bash
# A data directory written before the keyed node layout (one `node` key
# holding a whole snapshot) must be refused with the typed
# `RestoreError::UnsupportedLayout`, not misread and not overwritten.
#
# Usage: OLD_BIN=<replidtn built at 14f39d5, the last commit that wrote
# the blob layout> scripts/legacy_layout.sh  (expects
# target/release/replidtn; set BIN to override).
set -euo pipefail

BIN=${BIN:-target/release/replidtn}
: "${OLD_BIN:?set OLD_BIN to a replidtn binary built at commit 14f39d5}"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The old binary queues a message and persists at exit.
"$OLD_BIN" peer --id 1 --address alice --listen 127.0.0.1:0 \
    --data-dir "$WORK/old" --send bob:from-the-old-layout >/dev/null

before=$(cat "$WORK"/old/wal-*.log | cksum)
if out=$("$BIN" peer --id 1 --address alice --listen 127.0.0.1:0 \
    --data-dir "$WORK/old" 2>&1); then
    echo "FAIL: the old directory was opened:" >&2
    echo "$out" >&2
    exit 1
fi
if ! grep -q "predates the keyed node layout" <<<"$out"; then
    echo "FAIL: refused, but not with the layout error:" >&2
    echo "$out" >&2
    exit 1
fi
if [[ "$(cat "$WORK"/old/wal-*.log | cksum)" != "$before" ]]; then
    echo "FAIL: the refused directory was written to" >&2
    exit 1
fi
echo "legacy layout refused: $out"
