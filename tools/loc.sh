#!/bin/sh
# Count the tracked Rust lines outside perfbench/, split into test and
# non-test code, and print the total, test and non-test counts.
#
# Rule: every line of a file under a `tests/` directory is test code; in
# any other file, the lines from its first top-level `#[cfg(test)]` (at
# column 0) to the end of the file are test code. Everything else is
# non-test code.
#
# Usage: tools/loc.sh   (from anywhere inside the repository)
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- '*.rs' ':(exclude)perfbench/' | awk '
    {
        file = $0
        in_test = (file ~ /(^|\/)tests\//)
        while ((getline line < file) > 0) {
            if (line ~ /^#\[cfg\(test\)\]/) in_test = 1
            if (in_test) test++; else code++
        }
        close(file)
    }
    END { printf "total %d\ntest %d\nnon-test %d\n", test + code, test, code }'
