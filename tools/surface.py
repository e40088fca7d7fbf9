#!/usr/bin/env python3
"""Print the repository's tracked size numbers.

    tools/surface.py [CHECKOUT]

CHECKOUT defaults to the repository this script lives in. Prints:

* per crate, the non-test and test lines of `crates/*/src`, where test
  lines are `#[cfg(test)]` modules: inline `mod name { ... }` blocks,
  attribute included, and whole files declared as `#[cfg(test)] mod name;`;
* the field counts of `PoolConfig` and `WsConfig`, cfg-gated fields
  included;
* the public items of `hood`, counted from `cargo doc -p hood --no-deps`
  built into a temporary target directory that is deleted afterwards:
  the items `all.html` lists, the modules, and per type or trait page its
  fields, variants, inherent methods and associated items (trait impls
  and blanket impls are not counted).

Uses only the Python standard library and `cargo`; writes nothing into
the checkout.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile


def code_mask(text):
    """`text` with comments, string and char literals blanked to spaces
    (newlines kept), so braces and attributes can be matched naively."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif re.match(r'b?r#*"', text[i:i + 260]):
            m = re.match(r'b?r(#*)"', text[i:])
            end = text.find('"' + m.group(1), i + m.end())
            j = n if end < 0 else end + 1 + len(m.group(1))
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", text[i:])
            if m:
                blank(i, i + m.end())
                i += m.end()
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def block_end(masked, open_at):
    """Index just past the `}` matching the `{` at `open_at`."""
    depth = 0
    for k in range(open_at, len(masked)):
        if masked[k] == "{":
            depth += 1
        elif masked[k] == "}":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(masked)


TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*(?:#\[[^\]]*\]\s*)*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*([;{])")


def module_dir(path):
    """Directory that holds the files of `path`'s child modules."""
    base = os.path.basename(path)
    if base in ("lib.rs", "main.rs", "mod.rs"):
        return os.path.dirname(path)
    return os.path.join(os.path.dirname(path), base[:-3])


def count_lines(src_root):
    """(non-test, test) line counts of every `.rs` file under `src_root`."""
    files = []
    for dirpath, _, names in os.walk(src_root):
        files += [os.path.join(dirpath, f) for f in names if f.endswith(".rs")]
    test_files, test_lines, total = set(), 0, 0
    for path in files:
        text = open(path, encoding="utf-8").read()
        total += text.count("\n")
        masked = code_mask(text)
        for m in TEST_MOD.finditer(masked):
            if m.group(2) == "{":
                end = block_end(masked, m.end() - 1)
                test_lines += masked.count("\n", m.start(), end) + 1
            else:
                d = module_dir(path)
                for cand in (os.path.join(d, m.group(1) + ".rs"), os.path.join(d, m.group(1), "mod.rs")):
                    if os.path.exists(cand):
                        test_files.add(os.path.normpath(cand))
    for path in test_files:
        # A whole test file; any test module inside it was counted above.
        text = open(path, encoding="utf-8").read()
        masked = code_mask(text)
        inner = sum(
            masked.count("\n", m.start(), block_end(masked, m.end() - 1)) + 1
            for m in TEST_MOD.finditer(masked)
            if m.group(2) == "{"
        )
        test_lines += text.count("\n") - inner
    return total - test_lines, test_lines


def struct_fields(root, name):
    """Field count of `pub struct name { ... }` under `crates/*/src`."""
    pat = re.compile(r"pub struct " + name + r"\b[^{;]*\{")
    for dirpath, _, names in os.walk(os.path.join(root, "crates")):
        for f in names:
            if not f.endswith(".rs") or "/src" not in dirpath:
                continue
            masked = code_mask(open(os.path.join(dirpath, f), encoding="utf-8").read())
            m = pat.search(masked)
            if not m:
                continue
            body = masked[m.end():block_end(masked, m.end() - 1) - 1]
            # Drop attributes, then count `name:` at the body's top level.
            body = re.sub(r"#\[[^\]]*\]", "", body)
            depth, fields = 0, 0
            for tok in re.finditer(r"[{}()<>\[\]]|(?:pub(?:\([^)]*\))?\s+)?\b\w+\s*:(?!:)", body):
                t = tok.group(0)
                if t in "{([<":
                    depth += 1
                elif t in "})]>":
                    depth -= 1
                elif depth == 0 and (tok.start() == 0 or body[tok.start() - 1] in " \t\n,"):
                    fields += 1
            return fields
    return None


def public_items(root):
    """Counts of `hood`'s public API from its rustdoc HTML."""
    target = tempfile.mkdtemp(prefix="surface-doc-")
    try:
        subprocess.run(
            ["cargo", "doc", "-p", "hood", "--no-deps", "--offline", "-q",
             "--manifest-path", os.path.join(root, "Cargo.toml")],
            check=True,
            env=dict(os.environ, CARGO_TARGET_DIR=target),
        )
        doc = os.path.join(target, "doc", "hood")
        counts = {}
        listing = open(os.path.join(doc, "all.html"), encoding="utf-8").read()
        for sec in re.finditer(r'<h3 id="([a-z-]+)">[^<]*</h3><ul class="all-items">(.*?)</ul>', listing, re.S):
            counts[sec.group(1)] = len(re.findall(r"<li>", sec.group(2)))
        counts["modules"] = sum(
            1 for dirpath, _, names in os.walk(doc) if dirpath != doc and "index.html" in names
        )
        members = {"fields": 0, "variants": 0, "methods": 0, "assoc": 0}
        for dirpath, _, names in os.walk(doc):
            for f in names:
                kind = f.split(".")[0]
                if kind not in ("struct", "enum", "union", "trait"):
                    continue
                page = open(os.path.join(dirpath, f), encoding="utf-8").read()
                members["fields"] += len(re.findall(r'id="structfield\.\w+"', page))
                members["variants"] += len(re.findall(r'id="variant\.\w+"', page))
                if kind == "trait":
                    cut = min([page.find(s) for s in ('id="implementors"', 'id="foreign-impls"') if s in page] or [len(page)])
                    region = page[:cut]
                    members["methods"] += len(re.findall(r'id="(?:ty)?method\.\w+"', region))
                else:
                    # Inherent impls only: they come before the trait,
                    # auto-trait and blanket impl sections.
                    start = page.find('id="implementations-list"')
                    region = ""
                    if start >= 0:
                        ends = [page.find(s, start) for s in ('id="trait-implementations"', 'id="synthetic-implementations"', 'id="blanket-implementations"')]
                        region = page[start:min([e for e in ends if e >= 0] or [len(page)])]
                    members["methods"] += len(re.findall(r'id="method\.\w+"', region))
                members["assoc"] += len(re.findall(r'id="associated(?:type|constant)\.\w+"', region))
        counts.update(members)
        return counts
    finally:
        shutil.rmtree(target, ignore_errors=True)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
    print(f"{'crate':<12} {'non-test':>9} {'test':>7} {'total':>7}")
    sums = [0, 0]
    for crate in sorted(os.listdir(os.path.join(root, "crates"))):
        src = os.path.join(root, "crates", crate, "src")
        if not os.path.isdir(src):
            continue
        non_test, test = count_lines(src)
        sums[0] += non_test
        sums[1] += test
        print(f"{crate:<12} {non_test:>9} {test:>7} {non_test + test:>7}")
    print(f"{'all':<12} {sums[0]:>9} {sums[1]:>7} {sum(sums):>7}")
    print()
    for name in ("PoolConfig", "WsConfig"):
        print(f"{name} fields: {struct_fields(root, name)}")
    print()
    counts = public_items(root)
    total = sum(counts.values())
    detail = ", ".join(f"{k} {v}" for k, v in counts.items())
    print(f"hood public items: {total} ({detail})")


if __name__ == "__main__":
    main()
