#!/usr/bin/env python3
"""Check that a driver's header comment carries its --help text verbatim.

    check_help_header.py BINARY SOURCE

The header comment of SOURCE must hold the output of `BINARY --help`,
from its `usage:` line to the end of the comment, each line behind the
comment's ` * ` prefix. Exits 1 with a diff when the two drift apart.
"""

import difflib
import subprocess
import sys


def header_help(path):
    """The lines of the first /** */ comment, from `usage:` on."""
    lines = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith(" */"):
                break
            text = line[3:] if line.startswith(" * ") else line.lstrip(" *")
            if lines or text.startswith("usage:"):
                lines.append(text)
    return lines


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, source = sys.argv[1:]
    out = subprocess.run([binary, "--help"], capture_output=True,
                         text=True, check=True).stdout
    want = out.rstrip("\n").split("\n")
    got = header_help(source)
    if got != want:
        sys.stdout.writelines(difflib.unified_diff(
            [l + "\n" for l in got], [l + "\n" for l in want],
            source + " header", binary + " --help"))
        sys.exit(1)
    print("%s: header matches --help (%d lines)" % (source, len(want)))


if __name__ == "__main__":
    main()
