#!/usr/bin/env python3
"""Every `pub` method has a caller: a census of the workspace's public API.

Run from anywhere inside the repository:

    python3 scripts/pub_census.py

The `dead_code` lint cannot see a `pub` method of an exported type: as far
as rustc knows, another crate may call it. This script asks the compiler
instead, on a temporary copy of the tree (the checkout is never written):

1. Every indented `pub fn` and `pub` field under `crates/*/src` becomes
   `pub(crate)`.
2. `cargo check --workspace --all-targets` and a check of the benchmark
   ledger (`benchmark/`, whose sources are frozen callers) run on the copy.
   Every item a privacy error points at goes back to `pub`. This repeats
   until both compile: what is still `pub(crate)` then has no caller in
   another crate, an integration test, an example, a binary or the ledger.
3. `cargo check --workspace --lib` lists what `dead_code` now sees. Unit
   tests are not compiled there, so a method only its own unit tests reach
   counts as dead.

Prints one line per dead item and exits 1 if any is not on `ALLOWLIST`, or
if an `ALLOWLIST` entry has found a caller (remove it then).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

# `Type::item` -> why it may stay without a caller.
ALLOWLIST = {
    "FileVfs::new": "the only `Vfs` on real files; ROADMAP item 13 "
    "(the frontend journals) gives it its first caller",
}

FN = re.compile(r"^(\s+)pub ((?:const |async |unsafe |extern \"C\" )*fn )(\w+)")
FIELD = re.compile(r"^(\s+)pub ((?:r#)?\w+)\s*:(?!:)")
IMPL = re.compile(r"^\s*impl\b(?:<[^{]*?>)?\s+(?:[\w:]+(?:<[^{]*?>)?\s+for\s+)?(?:[\w]+::)*(\w+)")
STRUCT = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:struct|enum|union)\s+(\w+)")
PRIVATE_FIELDS = re.compile(r"fields? (.*) of (?:struct|union) `(?:[\w:]+::)?(\w+)` (?:is|are) private")


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def copy_tree(root, dest):
    out = run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], root)
    if out.returncode != 0:
        sys.exit(f"git ls-files failed: {out.stderr}")
    for rel in sorted(set(filter(None, out.stdout.split("\0")))):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def owner(lines, i, pattern):
    """Name of the nearest enclosing `impl` / `struct` above line `i`."""
    indent = len(lines[i]) - len(lines[i].lstrip())
    for j in range(i - 1, -1, -1):
        line = lines[j]
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            m = pattern.match(line)
            if m:
                return m.group(1)
            indent = len(line) - len(line.lstrip())
    return "?"


def demote(tree):
    """Make every indented `pub fn` / `pub` field `pub(crate)`.

    Returns {(path, line): (kind, owner, name)}, 1-based lines.
    """
    candidates = {}
    crates = os.path.join(tree, "crates")
    for dirpath, _, files in os.walk(crates):
        rel_dir = os.path.relpath(dirpath, tree).split(os.sep)
        if len(rel_dir) < 3 or rel_dir[2] != "src":
            continue
        for name in sorted(files):
            if not name.endswith(".rs"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, tree)
            with open(path) as f:
                lines = f.read().split("\n")
            changed = False
            for i, line in enumerate(lines):
                m = FN.match(line)
                if m:
                    candidates[(rel, i + 1)] = ("fn", owner(lines, i, IMPL), m.group(3))
                else:
                    m = FIELD.match(line)
                    if not m:
                        continue
                    candidates[(rel, i + 1)] = ("field", owner(lines, i, STRUCT), m.group(2))
                lines[i] = m.group(1) + "pub(crate) " + line[len(m.group(1)) + 4 :]
                changed = True
            if changed:
                with open(path, "w") as f:
                    f.write("\n".join(lines))
    return candidates


def promote(tree, key):
    rel, line_no = key
    path = os.path.join(tree, rel)
    with open(path) as f:
        lines = f.read().split("\n")
    lines[line_no - 1] = lines[line_no - 1].replace("pub(crate) ", "pub ", 1)
    with open(path, "w") as f:
        f.write("\n".join(lines))


def diagnostics(cmd, cwd):
    out = run(cmd + ["--message-format=json"], cwd)
    messages = []
    for line in out.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-message":
            messages.append(msg["message"])
    return out.returncode, messages, out.stderr


def all_spans(message, cwd, tree):
    for span in message.get("spans", []):
        path = os.path.normpath(os.path.join(cwd, span["file_name"]))
        yield os.path.relpath(path, tree), span
    for child in message.get("children", []):
        yield from all_spans(child, cwd, tree)


def restore_callers(tree, candidates, demoted):
    """Promote back what another target or the ledger calls, to a fixed point."""
    benchmark = os.path.join(tree, "benchmark")
    checks = [
        (["cargo", "check", "--offline", "--keep-going", "--workspace", "--all-targets"], tree),
        (["cargo", "check", "--offline", "--keep-going", "--all-targets"], benchmark),
    ]
    rounds = 0
    while True:
        rounds += 1
        promoted = set()
        failed = False
        for cmd, cwd in checks:
            code, messages, stderr = diagnostics(cmd, cwd)
            if code == 0:
                continue
            failed = True
            errors = [m for m in messages if m["level"] == "error"]
            for m in errors:
                hit = set()
                for rel, span in all_spans(m, cwd, tree):
                    for line in range(span["line_start"], span["line_end"] + 1):
                        if (rel, line) in demoted:
                            hit.add((rel, line))
                fields = PRIVATE_FIELDS.search(m["message"])
                if fields:
                    names = set(re.findall(r"`(\w+)`", fields.group(1)))
                    struct = fields.group(2)
                    hit |= {
                        k
                        for k in demoted
                        if candidates[k][:2] == ("field", struct) and candidates[k][2] in names
                    }
                promoted |= hit
                if not hit and not m["message"].startswith("aborting due to"):
                    print(m["rendered"], file=sys.stderr)
            if not errors:
                print(stderr, file=sys.stderr)
        if not failed:
            return rounds
        if not promoted:
            sys.exit("census: the copy does not compile for a reason it cannot undo (above)")
        for key in promoted:
            promote(tree, key)
        demoted -= promoted


def dead_items(tree):
    code, messages, stderr = diagnostics(
        ["cargo", "check", "--offline", "--workspace", "--lib"], tree
    )
    if code != 0:
        sys.exit(f"census: `cargo check --workspace --lib` failed\n{stderr}")
    found = []
    for m in messages:
        if (m.get("code") or {}).get("code") != "dead_code":
            continue
        spans = m["spans"]
        owners = [s for s in spans if not s["is_primary"]]
        parent = "?"
        if owners:
            text = owners[0]["text"][0]["text"]
            match = IMPL.match(text) or STRUCT.match(text)
            parent = match.group(1) if match else "?"
        kind = m["message"].split(" `")[0]
        if " are never " in m["message"]:
            kind = kind[:-1]  # "methods `a` and `b` are never used"
        for s in spans:
            if not s["is_primary"]:
                continue
            text = s["text"][0]
            name = text["text"][text["highlight_start"] - 1 : text["highlight_end"] - 1]
            qualified = f"{parent}::{name}" if owners else name
            found.append((s["file_name"], s["line_start"], qualified, kind))
    return sorted(set(found))


def main():
    root = run(["git", "rev-parse", "--show-toplevel"], os.path.dirname(os.path.abspath(__file__)))
    root = root.stdout.strip()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="pub-census-") as tmp:
        tree = os.path.join(tmp, "tree")
        copy_tree(root, tree)
        candidates = demote(tree)
        demoted = set(candidates)
        rounds = restore_callers(tree, candidates, demoted)
        dead = dead_items(tree)
    fns = sum(1 for k in candidates if candidates[k][0] == "fn")
    print(
        f"census: {fns} indented `pub fn`s and {len(candidates) - fns} `pub` fields "
        f"demoted, {len(candidates) - len(demoted)} have a caller outside their "
        f"crate ({rounds} compile rounds, {time.monotonic() - start:.0f} s)"
    )
    unexpected = 0
    for path, line, item, kind in dead:
        if item in ALLOWLIST:
            print(f"allowed  {path}:{line}: {kind} {item} ({ALLOWLIST[item]})")
        else:
            unexpected += 1
            print(f"dead     {path}:{line}: {kind} {item}")
    stale = set(ALLOWLIST) - {item for _, _, item, _ in dead}
    for item in sorted(stale):
        print(f"stale    allowlist entry {item} has a caller now: remove it")
    print(f"census: {unexpected} dead items outside the allowlist")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
