#!/usr/bin/env bash
# `cargo test <args>`, failing first when one of the test-name filters in
# <args> matches no test: a renamed test or module must fail its CI step,
# not turn it into a 0-test pass.
#
#   usage: .github/scripts/cargo-test-filtered.sh <arguments of cargo test>
#   e.g.   .github/scripts/cargo-test-filtered.sh -p compiler --lib physical::tests
set -euo pipefail

# Split the arguments into cargo's options (kept for the listing) and the
# filters: the bare words before and after the libtest separator `--`.
opts=()
filters=()
libtest=0
value=0
for a in "$@"; do
  if [ "$value" = 1 ]; then
    opts+=("$a")
    value=0
    continue
  fi
  case "$a" in
    --) libtest=1 ;;
    --test | --bin | --example | --bench | -p | --package | --manifest-path | --features)
      opts+=("$a")
      value=1
      ;;
    -*) [ "$libtest" = 1 ] || opts+=("$a") ;;
    *) filters+=("$a") ;;
  esac
done

tests=$(cargo test "${opts[@]}" -- --list | sed -n 's/: test$//p')
for f in "${filters[@]}"; do
  if ! grep -qF -- "$f" <<<"$tests"; then
    echo "error: filter \`$f\` of \`cargo test $*\` matches no test" >&2
    exit 1
  fi
done
cargo test "$@"
