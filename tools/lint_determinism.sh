#!/usr/bin/env bash
# Determinism lint for the simulated path.
#
# Simulated timing must be a pure function of program structure: iterating
# a HashMap/HashSet in simulated code makes counters depend on hash-seed
# iteration order, and reading the wall clock (Instant::now) makes them
# depend on the machine. This script greps the simulated-path crates for
# both and fails on any unannotated occurrence.
#
# Suppressing a finding requires an explicit `lint: hash-ok` marker on the
# offending line or the line directly above it, with a justification (e.g.
# "keyed lookup only, never iterated"). Plain `use` imports are ignored —
# importing the type is fine; using it is what needs the annotation.
#
# Scope: derived from the workspace, not hard-coded — gpu-sim itself,
# every workspace crate gpu-sim depends on, and every workspace crate
# that depends on gpu-sim. A new analysis crate built on the simulator
# (certify, precision, ...) is covered the day its manifest lands.
# Host-side bookkeeping in those crates (engine wall timing, serving
# queues) is fine but must carry an explicit `lint: hash-ok`
# justification, so the reviewer sees the determinism argument.

set -u
cd "$(dirname "$0")/.."

CORE=vecsparse-gpu-sim

# Package names listed under [dependencies] of a manifest (dep keys like
# `vecsparse-gpu-sim.workspace = true` reduce to the crate name).
manifest_deps() {
    awk '/^\[dependencies\]/{f=1; next} /^\[/{f=0} f {sub(/[ .=].*/, ""); if ($0 != "") print}' "$1"
}

manifest_name() {
    awk -F'"' '/^name *=/{print $2; exit}' "$1"
}

DIRS=""
core_deps=""
for m in crates/*/Cargo.toml; do
    name=$(manifest_name "$m")
    if [ "$name" = "$CORE" ]; then
        DIRS="$DIRS ${m%/Cargo.toml}/src"
        core_deps=$(manifest_deps "$m")
    elif manifest_deps "$m" | grep -qx "$CORE"; then
        DIRS="$DIRS ${m%/Cargo.toml}/src"
    fi
done
for dep in $core_deps; do
    for m in crates/*/Cargo.toml; do
        if [ "$(manifest_name "$m")" = "$dep" ]; then
            case " $DIRS " in
                *" ${m%/Cargo.toml}/src "*) ;;
                *) DIRS="$DIRS ${m%/Cargo.toml}/src" ;;
            esac
        fi
    done
done
DIRS=$(echo $DIRS | tr ' ' '\n' | sort | tr '\n' ' ')

PATTERN='HashMap|HashSet|Instant::now'
fail=0

for f in $(find $DIRS -name '*.rs' | sort); do
    out=$(awk -v file="$f" -v pat="$PATTERN" '
        {
            line = $0
            if (line ~ pat && line !~ /^[[:space:]]*use / \
                && line !~ /lint: hash-ok/ && prev !~ /lint: hash-ok/) {
                printf "%s:%d: %s\n", file, NR, line
            }
            prev = line
        }
    ' "$f")
    if [ -n "$out" ]; then
        echo "$out"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo >&2
    echo "determinism lint failed: simulated-path code uses hash-ordered" >&2
    echo "collections or the wall clock without a 'lint: hash-ok' marker." >&2
    echo "Either remove the use or annotate it with a justification." >&2
    exit 1
fi
echo "determinism lint clean ($DIRS)"

# Launch-entry-point lint: every way to run a kernel goes through the
# `Launch` builder. `pub fn launch_*` free functions fragment the entry
# point again — that's how the pre-builder API accreted four of them; the
# deprecated shims are gone, and no new ones may appear.
out=$(grep -n 'pub fn launch_' $(find crates/gpu-sim/src -name '*.rs' | sort) /dev/null)
if [ -n "$out" ]; then
    echo "$out"
    echo >&2
    echo "launch lint failed: 'pub fn launch_*' free functions are not" >&2
    echo "allowed — extend the Launch builder instead." >&2
    exit 1
fi
echo "launch-entry lint clean (crates/gpu-sim/src)"
