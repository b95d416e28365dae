#!/bin/sh
# Prints the number of non-test source lines: every `.rs` file under
# `crates/*/src`, `crates/*/benches` and `src/`, each counted up to its
# first `#[cfg(test)]`. Run it from the repository root.
set -eu
find crates/*/src crates/*/benches src -name '*.rs' -type f \
    -exec awk 'FNR == 1 { c = 1 } /#\[cfg\(test\)\]/ { c = 0 } c { n++ } END { print n + 0 }' {} + |
    awk '{ total += $1 } END { print total + 0 }'
