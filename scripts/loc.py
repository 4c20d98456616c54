#!/usr/bin/env python3
"""Print the non-test Rust line count per crate and in total.

Counts every line of each `crates/*/src/**/*.rs` file up to the
`#[cfg(test)]` line that opens its `mod tests` (inline unit-test modules
sit at the end of a file by convention). A `#[cfg(test)]` on anything
else, such as a test-only helper, is counted with the code around it.
Integration tests, benches, examples,
`third_party/` and `perfbench/` live outside `crates/*/src` and are not
counted.

Usage: python3 scripts/loc.py [repo-root]
"""

import pathlib
import sys


def non_test_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]") and lines[i + 1 : i + 2] == ["mod tests {\n"]:
            return i
    return len(lines)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate = {}
    for src in sorted(root.glob("crates/*/src")):
        per_crate[src.parent.name] = sum(
            non_test_lines(p) for p in sorted(src.rglob("*.rs"))
        )
    width = max(map(len, per_crate), default=5)
    for name, n in per_crate.items():
        print(f"{name:<{width}} {n:>7,}")
    print(f"{'total':<{width}} {sum(per_crate.values()):>7,}")


if __name__ == "__main__":
    main()
