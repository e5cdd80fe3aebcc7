#!/usr/bin/env python3
"""Production line count of the C++ libraries (stdlib only).

Usage:
    src_loc.py [--root DIR]
    src_loc.py --self-test

Counts the lines of ``src/**/*.h`` and ``src/**/*.cc`` that hold code:
blank lines and lines that are only comment (``//`` or ``/* ... */``)
are left out; a line with code and a trailing comment counts. Comment
markers inside string and character literals are not comments. Prints
one line per library (the first directory level under ``src/``, i.e.
one ``fdrepair_<layer>`` target) and the total, e.g.::

    storage      1234
    ...
    total        9876

The count is the yardstick for changes whose goal is less production
code; tests, benches and examples are outside ``src/`` and not counted.
It is also a ratchet: the script exits 1 when the total exceeds
``CEILING`` below. A change that lowers the total lowers the ceiling to
match; a change that must raise it says why in CHANGES.md.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

EXTENSIONS = (".h", ".cc")

# The most production lines src/ may hold (see the module docstring).
CEILING = 9213


def code_lines(text):
    """Returns the number of lines of `text` that carry code."""
    count = 0
    in_block = False
    for line in text.split("\n"):
        has_code = False
        i = 0
        quote = None
        while i < len(line):
            c = line[i]
            pair = line[i:i + 2]
            if in_block:
                if pair == "*/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if quote is not None:
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
                i += 1
                continue
            if pair == "//":
                break
            if pair == "/*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
            if not c.isspace():
                has_code = True
            i += 1
        if has_code:
            count += 1
    return count


def count_tree(root):
    """Maps each library under `root`/src to its code-line count."""
    src = os.path.join(root, "src")
    per_library = {}
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        relative = os.path.relpath(dirpath, src)
        if relative == ".":
            continue
        library = relative.split(os.sep)[0]
        for name in sorted(filenames):
            if not name.endswith(EXTENSIONS):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                lines = code_lines(f.read())
            per_library[library] = per_library.get(library, 0) + lines
    return per_library


def report(per_library):
    width = max([len("total")] + [len(name) for name in per_library])
    out = []
    for name in sorted(per_library):
        out.append("%-*s  %6d" % (width, name, per_library[name]))
    out.append("%-*s  %6d" % (width, "total", sum(per_library.values())))
    return "\n".join(out)


def check(root, ceiling):
    """Prints the report for `root`; returns 1 if its total exceeds
    `ceiling`, else 0."""
    per_library = count_tree(root)
    print(report(per_library))
    total = sum(per_library.values())
    if total > ceiling:
        print("src_loc: total %d exceeds the ceiling of %d production lines; "
              "delete code, or raise CEILING and say why in CHANGES.md"
              % (total, ceiling), file=sys.stderr)
        return 1
    return 0


def self_test():
    checks = 0
    assert code_lines("") == 0
    assert code_lines("\n\n   \n\t\n") == 0
    checks += 1
    assert code_lines("// a comment\n  /// doc comment\nint x;\n") == 1
    assert code_lines("int x;  // trailing comment\n") == 1
    checks += 1
    assert code_lines("/* one */\n/*\n * block\n */\nint y;\n") == 1
    assert code_lines("f(/*flag=*/true);\n") == 1
    assert code_lines("/* a */ int z; /* b\n still comment */\n") == 1
    assert code_lines("int a; /* open\n */ int b;\n") == 2
    checks += 1
    assert code_lines('const char* s = "// not a comment";\n') == 1
    assert code_lines('s = "/*";\nint after;\n') == 2
    assert code_lines("char c = '\"';\nint after;\n") == 2
    assert code_lines('s = "a\\"/*";\nint after;\n') == 2
    checks += 1
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src", "alpha", "nested"))
        os.makedirs(os.path.join(root, "src", "beta"))
        files = {
            ("alpha", "a.h"): "// header\n#pragma once\nint f();\n",
            ("alpha", "nested", "b.cc"): "int f() {\n  return 1;\n}\n",
            ("alpha", "notes.txt"): "not code\n",
            ("beta", "c.cc"): "\n/* only comment */\n",
            ("CMakeLists.txt",): "add_subdirectory(alpha)\n",
        }
        for parts, text in files.items():
            with open(os.path.join(root, "src", *parts), "w") as f:
                f.write(text)
        counts = count_tree(root)
        assert counts == {"alpha": 5, "beta": 0}, counts
        lines = report(counts).split("\n")
        assert lines[-1].split() == ["total", "5"], lines
        assert [line.split()[0] for line in lines] == \
            ["alpha", "beta", "total"], lines
        checks += 1
        # The ratchet: a total at the ceiling passes, one line over fails.
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            assert check(root, 5) == 0
            assert err.getvalue() == "", err.getvalue()
            assert check(root, 4) == 1
        assert "exceeds the ceiling of 4" in err.getvalue(), err.getvalue()
    checks += 1
    print("self-test OK (%d check groups)" % checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run the counter's own tests and exit")
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repository root (default: this script's parent directory)")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    return check(args.root, CEILING)


if __name__ == "__main__":
    sys.exit(main())
