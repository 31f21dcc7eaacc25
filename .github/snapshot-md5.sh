#!/usr/bin/env bash
# The bytes `rta_cli build --save` writes for one trace under six tree
# configurations: the md5 and size of each snapshot file.  Then the
# bytes a durable build of the same trace leaves: its log, its
# checkpoint pointer and the files of its last checkpoint generation.
# A change to how pages, log records, pointers or checkpoints are laid
# out or written that alters the bytes the same way under every store
# passes the cross-store `cmp`, but not this:
#
#   bash .github/snapshot-md5.sh | diff bench/results/snapshot-md5.txt -
#
# RTA_CLI names the built binary (default: from the repository root).
set -eo pipefail
CLI=${RTA_CLI:-./_build/default/bin/rta_cli.exe}
D=$(mktemp -d)
trap 'rm -rf "$D"' EXIT
"$CLI" generate -n 5000 --max-key 2000 -o "$D/trace.bin" > /dev/null
while read -r name flags; do
  # shellcheck disable=SC2086
  "$CLI" build --input "$D/trace.bin" --max-key 2000 $flags --save "$D/$name" > /dev/null
  for ext in lkst lklt meta; do
    sum=$(md5sum < "$D/$name.$ext" | cut -d ' ' -f 1)
    echo "$name $ext $sum $(wc -c < "$D/$name.$ext")"
  done
done <<'CONFIGS'
default
plain-no-merging --plain --no-merging
no-disposal --no-disposal
plain --plain
no-merging --no-merging
b8-f0.75 -b 8 -f 0.75
CONFIGS
"$CLI" build --input "$D/trace.bin" --max-key 2000 --wal "$D/wh" --checkpoint-every 1500 \
  > /dev/null
for ext in wal ckpt ckpt-6.lkst ckpt-6.lklt ckpt-6.meta; do
  sum=$(md5sum < "$D/wh.$ext" | cut -d ' ' -f 1)
  echo "durable $ext $sum $(wc -c < "$D/wh.$ext")"
done
