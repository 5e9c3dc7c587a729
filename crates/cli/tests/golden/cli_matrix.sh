#!/bin/sh
# The CLI golden: one invocation of every subcommand, then the SHA-256 of
# every file they wrote. Runs in a fresh temporary directory, so relative
# paths in the output are stable.
#
#   crates/cli/tests/golden/cli_matrix.sh ./target/release/redspot > cli.txt
#   cmp cli.txt crates/cli/tests/golden/cli_matrix.txt
#
# cli_matrix.txt was captured from the binary that still had the `adaptive`
# and `bootstrap` subcommands and the `--format`/`--cache-stats` flags,
# with the older spelling noted after each line that changed. Never
# regenerate it from the current binary: it pins that the respelled
# commands print and write exactly what the old ones did.
#
# The study lines marked "added" came later. Their output was captured
# from the binary that still had one module per guarantee study (`chaos`,
# `chaos_api`, `era_compare`, `policy_compare`), before those studies
# shared one grid; every earlier line of the golden was left as it was.
# They pin the infrastructure-only chaos table, the control-plane-only
# table, both chaos tables under the modern era, the "vs baseline" column
# with the fault-free baseline listed second or missing, and the era
# table on a second market.
set -eu
BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"
r() { "$BIN" "$@"; }

r gen-trace --profile low --seed 42 --out low.json
r gen-trace --profile high --seed 7 --out high.csv                 # was: + --format csv
r describe high.csv
r gen-trace --bootstrap-from low.json --seed 3 --days 10 --block-hours 6 --out boot.json   # was: bootstrap --trace low.json ...
r calibrate --trace low.json --out fit.json
r workloads
r run --trace low.json --policy markov-daly --zones 0,1 --start 48 --metrics --trace-out ev.jsonl
r validate-trace ev.jsonl
r run --trace high.csv --policy randomized-bid --seed 9 --era modern --start 48
r run --trace low.json --policy adaptive --start 48               # was: adaptive --trace low.json --start 48
r sweep --trace low.json --policy markov-daly --bids 0.81,2.40 --n 4 --metrics   # was: + --cache-stats
r sweep --trace low.json --redundant --bids 0.81 --n 3            # was: --redundant true
r sweep --trace low.json --policy adaptive --bids 0.81 --n 3 --out sweep.json
r chaos --api --n 2 --intensities 0,0.5
r chaos --n 2 --intensities 0.5,0                                 # added: baseline listed second
r chaos --api-only --n 2 --intensities 0.7                        # added: no baseline
r chaos --era modern --n 2 --intensities 0,0.5                    # added
r chaos --api --era modern --n 2 --intensities 0,0.5              # added
r era-compare --profile low --n 2                                 # added
r era-compare --n 2
r policy-compare --n 2 --out pc.json
r fleet --jobs 4 --capacity unbounded,1 --intensities 0 --out fleet.json
printf '%s\n' \
  '{"req":"open","market":"m","zones":1}' \
  '{"req":"ingest","market":"m","at":0,"prices":[270]}' \
  '{"req":"ingest","market":"m","at":300,"prices":[2000]}' \
  '{"req":"advise","market":"p","now":90000,"remaining_compute":72000,"remaining_time":82800}' \
  '{"req":"shutdown"}' | r serve --stdio --profile low --market p
sha256sum low.json high.csv boot.json fit.json ev.jsonl sweep.json pc.json fleet.json
