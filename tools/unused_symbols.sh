#!/usr/bin/env bash
# List the library functions that no program keeps: every bis:: function
# defined in libbiscatter.a that no executable under bench/, examples/ or
# tools/, and not perfbench, links in. Such a function is reached only from
# tests (or from nothing), so it is a candidate for deletion.
#
# Usage: tools/unused_symbols.sh [<work-dir>]
#
# The working tree is built (Release, Unix Makefiles) in <work-dir>/build,
# every target except biscatter_tests, and perfbench/ in
# <work-dir>/perfbench-build, both with
#   -ffunction-sections -fdata-sections -Wl,--gc-sections
# so each executable keeps only the functions it can reach. nm then lists
# the library's bis:: text symbols (demangled, one per line, sorted) that
# appear in none of the executables, and a count on stderr. <work-dir>
# defaults to a fresh temporary directory that is removed on exit; name one
# to keep the builds and rerun incrementally.
#
# The list is a lead, not a verdict. A function that the compiler inlines
# into every caller is kept by no executable although a program runs its
# code (dsp::rfft_into, for one), and an inline or template function is
# emitted only where it is used. Confirm each entry with grep over bench/,
# examples/, tools/ and perfbench/ before deleting it.
#
# Exit status: 0 after listing (whatever the count), 2 on a usage or build
# error.
set -euo pipefail

if [[ $# -gt 1 ]]; then
  echo "usage: $0 [<work-dir>]" >&2
  exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
if [[ $# -eq 1 ]]; then
  work=$(mkdir -p "$1" && cd "$1" && pwd)
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

gc_flags=(-DCMAKE_BUILD_TYPE=Release
          "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# configure <source-dir> <build-dir>
configure() {
  cmake -G "Unix Makefiles" -S "$1" -B "$2" "${gc_flags[@]}" > "$2.log" 2>&1 || {
    echo "$0: configuring $1 failed; see $2.log" >&2
    exit 2
  }
}

# build <build-dir> <target>...
build() {
  local dir=$1
  shift
  cmake --build "$dir" -j "$(nproc)" --target "$@" >> "$dir.log" 2>&1 || {
    echo "$0: build in $dir failed; see $dir.log" >&2
    exit 2
  }
}

echo "building $repo" >&2
mkdir -p "$work/build"
configure "$repo" "$work/build"
# The Makefile's target list, less its own pseudo-targets, object files and
# the test binary.
mapfile -t targets < <(cmake --build "$work/build" --target help |
  sed -n 's/^\.\.\. \([A-Za-z0-9_]*\)\( .*\)\{0,1\}$/\1/p' |
  grep -vxE 'all|clean|depend|edit_cache|rebuild_cache|test|install|biscatter_tests|biscatter|biscatter_warnings' || true)
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "$0: no targets found in $work/build" >&2
  exit 2
fi
build "$work/build" "${targets[@]}"

echo "building $repo/perfbench" >&2
mkdir -p "$work/perfbench-build"
configure "$repo/perfbench" "$work/perfbench-build"
build "$work/perfbench-build" perfbench

# text_symbols <file>...: the demangled bis:: functions each file defines.
# A function's compiler clones (its .cold part, .isra and .constprop copies)
# count as the function itself.
text_symbols() {
  nm -C --defined-only "$@" 2> /dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] \(bis::.*\)$/\1/p' |
    sed 's/ \[clone [^]]*\]//g' | sort -u
}

lib=$work/build/src/libbiscatter.a
mapfile -t programs < <(find "$work/build/bench" "$work/build/examples" \
  "$work/build/tools" -maxdepth 1 -type f -perm -u+x | sort)
programs+=("$work/perfbench-build/perfbench")

text_symbols "$lib" > "$work/library.txt"
text_symbols "${programs[@]}" > "$work/kept.txt"
comm -23 "$work/library.txt" "$work/kept.txt" > "$work/unused.txt"
cat "$work/unused.txt"
echo "$(wc -l < "$work/unused.txt") of $(wc -l < "$work/library.txt") bis::" \
  "functions in libbiscatter.a are kept by none of ${#programs[@]} executables" >&2
