#!/usr/bin/env bash
# unreached_functions.sh — lists the library functions no product reaches.
#
#   tools/unreached_functions.sh BUILD_DIR > unreached.txt
#
# Builds the eleven product executables (the four benches, cesrm_cli, the
# five examples, and perfbench from its own CMake project) at -O0 with
# -fno-inline and -ffunction-sections, linked with --gc-sections, so each
# keeps exactly the functions it can call. Prints every non-inline
# function of the src/ static libraries (nm type T) that no product keeps,
# one qualified name per line with the parameter list stripped, sorted.
# Such a function is reached from tests or from nothing;
# tools/test_only_functions.txt names each one with the reason it stays,
# and CI diffs this list against it.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm, whatever the host's

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:?usage: tools/unreached_functions.sh BUILD_DIR}
jobs=${JOBS:-4}
flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
benches=(bench_paper bench_ablation bench_faults bench_scale)
examples=(quickstart trace_replay mbone_audio_session
          router_assisted_recovery policy_explorer)

cmake -S "$root" -B "$build/main" "${flags[@]}" > /dev/null
cmake --build "$build/main" -j "$jobs" \
  --target "${benches[@]}" cesrm_cli "${examples[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}" > /dev/null
cmake --build "$build/perfbench" -j "$jobs" --target perfbench > /dev/null

products=("$build/main/tools/cesrm_cli" "$build/perfbench/perfbench")
for b in "${benches[@]}"; do products+=("$build/main/bench/$b"); done
for e in "${examples[@]}"; do products+=("$build/main/examples/$e"); done

# Mangled names of the global text symbols defined in the given files.
text_symbols() {
  nm --defined-only "$@" | awk 'NF == 3 && $2 == "T" { print $3 }' | sort -u
}

comm -23 <(text_symbols "$build"/main/src/*/libcesrm_*.a) \
         <(text_symbols "${products[@]}") | c++filt -p | sort -u
