#!/usr/bin/env python3
"""QPPT concurrency-discipline lint.

Repo-specific checks that generic tooling cannot express. This script is
the one implementation of each rule below; CTest (lint_fixtures_test)
and CI run it over the full tree. The compiler enforces the remaining
engine rule: -Werror=unused-result makes a discarded Status / Result<T>
a compile error in every target of the root CMake build.

  raw-slot-read      Published tree slot arrays (PrefixTree node slots,
                     KissTree root directory) may only be read through the
                     atomic accessors (LoadSlot/LoadRootSlot/LoadEntry and
                     the Store* counterparts). Raw indexing is allowed only
                     in the tree implementation files, where nodes are
                     still private to the building thread or the access
                     runs on the single-writer path under the database
                     write lock.

  relaxed-justify    Every memory_order_relaxed / __ATOMIC_RELAXED
                     operation must carry a "// relaxed: <why>"
                     justification on the same line or within the three
                     preceding lines.

  release-pair       Every release store must name its paired acquire
                     site with a "pairs-with: <tag>" comment (same line or
                     within the three preceding lines); tags must exist in
                     scripts/analyze/atomics_pairs.txt, and in full-tree
                     runs every catalogue entry must be referenced.

  memory-order-literal
                     Every memory order is spelled at its atomic call as a
                     std::memory_order_* constant, where relaxed-justify
                     and release-pair read it: no std::memory_order
                     variable, parameter, alias or scoped enumerator, and
                     no "= std::memory_order_*" initializer.

  hot-path-alloc     No non-placement new, malloc/calloc, std::function
                     (type erasure heap-allocates the closure; take a
                     template callback), or node-based std containers
                     (map/set/list/unordered_*) in the hot-path
                     directories src/index and src/core/operators. Arena
                     placement-new ("new (arena...) T") is fine.

  ranked-lock        No std::lock_guard / std::unique_lock /
                     std::scoped_lock object outside src/dbg/lock_rank.h:
                     take mutexes through dbg::RankedLockGuard /
                     dbg::RankedUniqueLock, so the lock-rank checker sees
                     the acquisition, or write "// lock-rank: manual —
                     <reason>" on the line or within the five lines above.

  cancel-coverage    In src/core/operators, src/engine and src/index, a
                     function whose signature or body names CancelToken,
                     CancelTicker, ExecContext or MorselSite (a cancel
                     source) and which scans — calls SynchronousScan,
                     SynchronousScanRange, SynchronousScanPairSlots,
                     ScanAll, ScanGroups or ForEachKey (the BaseIndex key
                     enumerator), or runs a loop nested in another loop —
                     must poll:
                     Tick()/Check() on a cancel object, CheckCancel*, or
                     a call that passes its MorselSite (the drivers poll
                     per morsel). Lambdas belong to their enclosing
                     function. A site is exempt with "// cancel-exempt:
                     <reason>" on its line or within the three lines
                     above.

  planstats-clear    A function taking a caller-supplied "PlanStats*" that
                     uses it must Clear() it, overwrite it wholesale
                     ("*stats = ..."), or forward it to a callee that does
                     (the accumulation contract in src/core/stats.h).

  failpoint-tag      Every QPPT_FAILPOINT / QPPT_FAILPOINT_STATUS site must
                     name a tag catalogued in scripts/analyze/failpoints.txt,
                     and in full-tree runs every catalogue entry must be
                     referenced by a site — the catalogue is the live
                     inventory of injectable faults.

Usage:
  qppt_lint.py                    # lint src/ under the repo root
  qppt_lint.py FILE...            # lint specific files
  --root DIR                      # repo root (default: two dirs up)
  --pairs FILE                    # pairing catalogue override
  --failpoints FILE               # failpoint catalogue override
  --treat-as-hot                  # apply the directory-scoped checks
                                  # (hot-path-alloc, cancel-coverage) to
                                  # the given FILEs (fixture tests)

Exit status: 0 clean, 1 violations, 2 usage/config error.
"""

import argparse
import bisect
import os
import re
import sys

# Files allowed to index slot arrays raw: node construction before
# publication, and the single-writer upsert path under the database write
# lock. Everything else goes through the acquire accessors.
RAW_SLOT_ALLOWLIST = {
    "src/index/kiss_tree.cc",
    "src/index/prefix_tree.cc",
}

# Hot-path directories where allocation must come from arenas.
HOT_PATH_DIRS = ("src/index/", "src/core/operators/")
# Hot-path files granted an explicit exemption (none today; add with a
# reason).
HOT_ALLOC_ALLOWLIST = set()

# Directories whose scanning functions must poll cancellation.
CANCEL_DIRS = ("src/core/operators/", "src/engine/", "src/index/")
# The one file allowed raw std guards: the ranked wrappers themselves.
RANKED_LOCK_ALLOWLIST = {"src/dbg/lock_rank.h"}

# How many lines above an atomic op a justification/pairing comment may
# sit (accessor doc comment + signature + TSan annotation); the same
# window holds a cancel-exempt reason.
COMMENT_LOOKBACK = 3
# A lock-rank: manual reason often spans several lines.
LOCK_RANK_LOOKBACK = 5

RELAXED_RE = re.compile(r"memory_order_relaxed|__ATOMIC_RELAXED")
RELEASE_RE = re.compile(r"memory_order_release|__ATOMIC_RELEASE")
RELAXED_COMMENT_RE = re.compile(r"//.*\brelaxed\b", re.IGNORECASE)
PAIRS_TAG_RE = re.compile(r"pairs-with:\s*([A-Za-z0-9_-]+)")
SLOT_ACCESS_RE = re.compile(r"->slots\[|\broot_\[")
NODE_CONTAINER_RE = re.compile(
    r"std::(?:multi)?(?:map|set)\s*<"
    r"|std::(?:forward_)?list\s*<"
    r"|std::unordered_(?:multi)?(?:map|set)\s*<")
RAW_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
RAW_MALLOC_RE = re.compile(r"\b(?:malloc|calloc)\s*\(")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
# The enum type (as a variable, parameter or alias, or through its C++20
# scoped enumerators), and a named constant initialized from an order.
ORDER_TYPE_RE = re.compile(r"\bstd::memory_order\b")
ORDER_INIT_RE = re.compile(r"(?<![=!<>])=\s*std::memory_order_\w+")
GUARD_RE = re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b")
LOCK_RANK_MANUAL_RE = re.compile(r"//.*\block-rank:\s*manual\b\W+\w")
CANCEL_SOURCE_RE = re.compile(
    r"\b(?:CancelToken|CancelTicker|ExecContext|MorselSite)\b")
SCAN_CALL_RE = re.compile(
    r"\b(?:SynchronousScan|SynchronousScanRange|SynchronousScanPairSlots"
    r"|ScanAll|ScanGroups|ForEachKey)"
    r"\s*(?:<[^;{}()]*>\s*)?\(")
LOOP_RE = re.compile(r"\b(?:for|while|do)\b")
# Tick()/Check() on an object named for cancellation, and CheckCancel*.
NAMED_POLL_RE = re.compile(
    r"\b\w*(?:[Cc]ancel|[Tt]icker)\w*\s*(?:\(\s*\)\s*)?(?:\.|->)\s*"
    r"(?:Tick|Check)\s*\(|\bCheckCancel\w*\s*\(")
CANCEL_DECL_RE = re.compile(
    r"\bCancel(?:Token|Ticker)\b[\s*&]*(?:const\b[\s*&]*)?(\w+)")
SITE_DECL_RE = re.compile(r"\bMorselSite\b[\s*&]*(?:const\b[\s*&]*)?(\w+)")
SITE_TEMP_ARG_RE = re.compile(r"[(,]\s*(?:\w+::)*MorselSite\s*\{")
CANCEL_EXEMPT_RE = re.compile(r"//.*\bcancel-exempt:\s*\S")
# A brace opening a namespace, class or linkage scope (functions nest in
# these) rather than a function body or an initializer.
SCOPE_HEAD_RE = re.compile(
    r"\b(?:namespace|class|struct|union|enum)\b|\bextern\s*\"")
TEMPLATE_PARAMS_RE = re.compile(
    r"\btemplate\s*<[^{};]*?>(?=\s*(?:template|[\w:~\[]))")
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)
PLANSTATS_PARAM_RE = re.compile(r"PlanStats\s*\*\s*(\w+)")
FAILPOINT_RE = re.compile(r"\bQPPT_FAILPOINT(?:_STATUS)?\s*\(\s*(\w+)\s*\)")


def strip_comment(line):
    """Drops a // comment (good enough: the tree has no // inside strings
    on lines these checks look at)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def load_pairs(path):
    tags = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tags[line.split()[0]] = ln
    return tags


def has_nearby_comment(lines, i, pattern, lookback=COMMENT_LOOKBACK):
    lo = max(0, i - lookback)
    return any(pattern.search(lines[j]) for j in range(lo, i + 1))


def nearby_pair_tag(lines, i):
    lo = max(0, i - COMMENT_LOOKBACK)
    for j in range(i, lo - 1, -1):
        m = PAIRS_TAG_RE.search(lines[j])
        if m:
            return m.group(1)
    return None


def is_address_taken(line, start):
    """True when the slot expression starting inside `line` at `start`
    has its address taken (passed to an accessor or a prefetch)."""
    j = start - 1
    while j >= 0 and (line[j].isalnum() or line[j] in "_.>-()"):
        j -= 1
    return j >= 0 and line[j] == "&"


def blank_code(text):
    """`text` with preprocessor lines, comments and the contents of string
    and character literals replaced by spaces. Newlines stay, so offsets
    and line numbers match the original."""
    code = list(PREPROCESSOR_RE.sub(lambda m: re.sub(r"[^\n]", " ",
                                                     m.group(0)), text))
    n = len(code)

    def blank(a, b):
        for k in range(a, min(b, n)):
            if code[k] != "\n":
                code[k] = " "

    i = 0
    while i < n:
        c = code[i]
        nxt = code[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and code[j] != "\n":
                j += 1
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = i + 2
            while j < n and not (code[j] == "*" and j + 1 < n
                                 and code[j + 1] == "/"):
                j += 1
            blank(i, j + 2)
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and code[j] != c and code[j] != "\n":
                j += 2 if code[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c.isdigit():
            # A number, whose digit separators (6'000) open no literal.
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] in "._" or (
                    code[j] == "'" and j + 1 < n and code[j + 1].isalnum())):
                j += 1
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] == "_"):
                j += 1
            i = j
        else:
            i += 1
    return "".join(code)


def matching_close(code, k, hi=None):
    """Offset of the bracket closing the one at code[k] (or hi - 1)."""
    pairs = {"(": ")", "{": "}", "<": ">"}
    open_c, close_c = code[k], pairs[code[k]]
    hi = len(code) if hi is None else hi
    depth = 0
    for j in range(k, hi):
        if code[j] == open_c:
            depth += 1
        elif code[j] == close_c:
            depth -= 1
            if depth == 0:
                return j
    return hi - 1


def skip_space(code, k, hi):
    while k < hi and code[k].isspace():
        k += 1
    return k


def head_kind(head):
    """What the '{' after `head` (the text since the previous ';', '{' or
    '}' at namespace or class scope) opens: "scope" for a namespace,
    class or linkage block, "function" for a body (a parameter list and
    no '=' outside parentheses), None for an initializer."""
    head = TEMPLATE_PARAMS_RE.sub(" ", head)
    if SCOPE_HEAD_RE.search(head):
        return "scope"
    if "(" not in head:
        return None
    top = re.sub(r"\boperator\s*[^\w\s(]+", " ", head)
    depth = 0
    for c in top:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "=" and depth == 0:
            return None
    return "function"


def function_bodies(code, lo=0, hi=None):
    """(head_start, body_open, body_close) of every function defined at
    namespace or class scope of blanked `code`. The head is the text since
    the previous ';', '{' or '}' of that scope; nested classes and
    namespaces are searched too, and lambdas stay inside their function."""
    hi = len(code) if hi is None else hi
    out = []
    head = lo
    k = lo
    while k < hi:
        c = code[k]
        if c in ";}":
            head = k + 1
        elif c == "{":
            close = matching_close(code, k, hi)
            kind = head_kind(code[head:k])
            if kind == "scope":
                out.extend(function_bodies(code, k + 1, close))
            elif kind == "function":
                after = skip_space(code, close + 1, hi)
                if after < hi and code[after] in ",{":
                    k = close + 1  # brace-init in a constructor's
                    continue       # initializer list; the body follows
                out.append((head, k, close))
            head = close + 1
            k = close + 1
            continue
        k += 1
    return out


def statement_end(code, k, hi):
    """Offset of the last character of the statement starting at `k`: a
    braced block, or up to the first ';' outside brackets (an unbraced
    loop body, which may itself end in a block)."""
    k = skip_space(code, k, hi)
    if k < hi and code[k] == "{":
        return matching_close(code, k, hi)
    depth = 0
    for j in range(k, hi):
        c = code[j]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0 and c == "}":
                return j
        elif c == ";" and depth == 0:
            return j
    return hi - 1


def loop_extents(code, lo, hi):
    """(start, end) of every for/while/do statement in code[lo:hi]."""
    out = []
    for m in LOOP_RE.finditer(code, lo, hi):
        k = m.end()
        if m.group(0) != "do":
            k = skip_space(code, k, hi)
            if k >= hi or code[k] != "(":
                continue
            k = matching_close(code, k, hi) + 1
        out.append((m.start(), statement_end(code, k, hi)))
    return out


class Linter:
    def __init__(self, pairs_path, failpoints_path):
        self.errors = []
        self.pair_tags = load_pairs(pairs_path)
        self.pairs_path = pairs_path
        self.used_tags = set()
        self.failpoint_tags = load_pairs(failpoints_path)
        self.failpoints_path = failpoints_path
        self.used_failpoints = set()

    def error(self, path, line_no, check, msg):
        self.errors.append(f"{path}:{line_no}: [{check}] {msg}")

    def lint_file(self, path, rel, hot_override=False):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.splitlines()
        self.check_slots(rel, lines)
        self.check_relaxed(rel, lines)
        self.check_release(rel, lines)
        self.check_memory_order(rel, lines)
        self.check_failpoints(rel, lines)
        is_hot = hot_override or any(rel.startswith(d) for d in HOT_PATH_DIRS)
        if is_hot and rel not in HOT_ALLOC_ALLOWLIST:
            self.check_hot_alloc(rel, lines)
        if rel not in RANKED_LOCK_ALLOWLIST:
            self.check_ranked_lock(rel, lines)
        if hot_override or any(rel.startswith(d) for d in CANCEL_DIRS):
            self.check_cancel(rel, text, lines)
        self.check_planstats(rel, text, lines)

    def check_slots(self, rel, lines):
        if rel in RAW_SLOT_ALLOWLIST:
            return
        for i, raw in enumerate(lines):
            line = strip_comment(raw)
            for m in SLOT_ACCESS_RE.finditer(line):
                if is_address_taken(line, m.start()):
                    continue  # &node->slots[i] fed to an accessor/prefetch
                self.error(
                    rel, i + 1, "raw-slot-read",
                    "raw access to a published tree slot array; use the "
                    "atomic accessors (LoadSlot/LoadRootSlot/LoadEntry / "
                    "Store*) or move the code into a tree implementation "
                    "file")

    def check_relaxed(self, rel, lines):
        for i, raw in enumerate(lines):
            if not RELAXED_RE.search(strip_comment(raw)):
                continue
            if has_nearby_comment(lines, i, RELAXED_COMMENT_RE):
                continue
            self.error(
                rel, i + 1, "relaxed-justify",
                "memory_order_relaxed without a \"// relaxed: <why>\" "
                "justification on the line or just above it")

    def check_release(self, rel, lines):
        for i, raw in enumerate(lines):
            if not RELEASE_RE.search(strip_comment(raw)):
                continue
            tag = nearby_pair_tag(lines, i)
            if tag is None:
                self.error(
                    rel, i + 1, "release-pair",
                    "release store without a \"pairs-with: <tag>\" "
                    "comment naming its acquire site (catalogue: "
                    "scripts/analyze/atomics_pairs.txt)")
            elif tag not in self.pair_tags:
                self.error(
                    rel, i + 1, "release-pair",
                    f"pairs-with tag '{tag}' is not in the catalogue "
                    f"({self.pairs_path})")
            else:
                self.used_tags.add(tag)

    def check_memory_order(self, rel, lines):
        for i, raw in enumerate(lines):
            line = strip_comment(raw)
            if ORDER_TYPE_RE.search(line) or ORDER_INIT_RE.search(line):
                self.error(
                    rel, i + 1, "memory-order-literal",
                    "memory order held in a variable, parameter, alias or "
                    "named constant; spell it as std::memory_order_<name> "
                    "at the atomic call, where relaxed-justify and "
                    "release-pair read it")

    def check_failpoints(self, rel, lines):
        for i, raw in enumerate(lines):
            if raw.lstrip().startswith("#"):
                continue  # the macro definitions themselves
            line = strip_comment(raw)
            for m in FAILPOINT_RE.finditer(line):
                tag = m.group(1)
                if tag not in self.failpoint_tags:
                    self.error(
                        rel, i + 1, "failpoint-tag",
                        f"failpoint tag '{tag}' is not in the catalogue "
                        f"({self.failpoints_path})")
                else:
                    self.used_failpoints.add(tag)

    def check_hot_alloc(self, rel, lines):
        for i, raw in enumerate(lines):
            if raw.lstrip().startswith("#"):
                continue  # includes (<new>, <list>) are not allocations
            line = strip_comment(raw)
            if NODE_CONTAINER_RE.search(line):
                self.error(
                    rel, i + 1, "hot-path-alloc",
                    "node-based std container in a hot-path directory; use "
                    "a flat structure or an arena-backed one")
            if RAW_NEW_RE.search(line) or RAW_MALLOC_RE.search(line):
                self.error(
                    rel, i + 1, "hot-path-alloc",
                    "raw heap allocation in a hot-path directory; allocate "
                    "from an arena (placement new into arena memory is "
                    "allowed)")
            if STD_FUNCTION_RE.search(line):
                self.error(
                    rel, i + 1, "hot-path-alloc",
                    "std::function in a hot-path directory (type erasure "
                    "heap-allocates the closure); take a template callback")

    def check_ranked_lock(self, rel, lines):
        for i, raw in enumerate(lines):
            line = strip_comment(raw)
            for m in GUARD_RE.finditer(line):
                k = skip_space(line, m.end(), len(line))
                if k < len(line) and line[k] == "<":
                    k = skip_space(line, matching_close(line, k) + 1,
                                   len(line))
                if k < len(line) and line[k] in "&*":
                    continue  # a reference to a lock held elsewhere
                if has_nearby_comment(lines, i, LOCK_RANK_MANUAL_RE,
                                      LOCK_RANK_LOOKBACK):
                    continue
                self.error(
                    rel, i + 1, "ranked-lock",
                    "raw std lock guard bypasses the lock-rank checker; use "
                    "dbg::RankedLockGuard / dbg::RankedUniqueLock "
                    "(src/dbg/lock_rank.h) or annotate "
                    "\"// lock-rank: manual — <reason>\"")

    def check_cancel(self, rel, text, lines):
        code = blank_code(text)
        line_starts = [0] + [m.end() for m in re.finditer("\n", code)]

        def line_of(pos):
            return bisect.bisect_right(line_starts, pos) - 1

        for head, body_open, body_close in function_bodies(code):
            function = code[head:body_close + 1]
            body = code[body_open:body_close + 1]
            if not CANCEL_SOURCE_RE.search(function):
                continue  # no cancel source in scope: the caller polls
            sites = [body_open + m.start()
                     for m in SCAN_CALL_RE.finditer(body)]
            loops = loop_extents(code, body_open, body_close + 1)
            sites += [start for start, end in loops
                      if any(start < other < end for other, _ in loops)]
            if not sites or self.polls(function, body):
                continue
            for pos in sorted(sites):
                i = line_of(pos)
                if has_nearby_comment(lines, i, CANCEL_EXEMPT_RE):
                    continue
                self.error(
                    rel, i + 1, "cancel-coverage",
                    "scan work in a function that reaches a cancel source "
                    "but never polls it; tick a CancelTicker / Check() the "
                    "CancelToken in the loop, pass the MorselSite to a "
                    "driver, or annotate \"// cancel-exempt: <reason>\"")

    @staticmethod
    def polls(function, body):
        """True when `body` polls cancellation: Tick()/Check() on a cancel
        object, CheckCancel*, or a call passing one of the function's
        MorselSites (declared in `function`, signature included)."""
        if NAMED_POLL_RE.search(body) or SITE_TEMP_ARG_RE.search(body):
            return True
        for name in set(CANCEL_DECL_RE.findall(function)):
            if re.search(rf"\b{name}\s*(?:\.|->)\s*(?:Tick|Check)\s*\(",
                         body):
                return True
        for name in set(SITE_DECL_RE.findall(function)):
            if re.search(rf"[(,]\s*&?\s*{name}\s*[,)]", body):
                return True
        return False

    def check_planstats(self, rel, text, lines):
        for m in PLANSTATS_PARAM_RE.finditer(text):
            name = m.group(1)
            # Find the end of the parameter list, then a body or a ';'.
            depth = 0
            j = m.end()
            while j < len(text):
                c = text[j]
                if c == "(":
                    depth += 1
                elif c == ")":
                    if depth == 0:
                        break
                    depth -= 1
                j += 1
            k = j
            while k < len(text) and text[k] not in "{;":
                k += 1
            if k >= len(text) or text[k] == ";":
                continue  # declaration only
            body_start = k
            depth = 0
            k2 = body_start
            while k2 < len(text):
                if text[k2] == "{":
                    depth += 1
                elif text[k2] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k2 += 1
            body = text[body_start:k2 + 1]
            if not re.search(rf"\b{name}\b\s*(?:->|\.)", body) and \
               not re.search(rf"\*\s*{name}\b", body):
                continue  # parameter unused beyond forwarding/ignoring
            cleared = re.search(rf"\b{name}\s*->\s*Clear\s*\(", body)
            assigned = re.search(rf"\*\s*{name}\s*=[^=]", body)
            forwarded = re.search(rf"[(,]\s*{name}\s*[),]", body)
            if cleared or assigned or forwarded:
                continue
            line_no = text.count("\n", 0, m.start()) + 1
            self.error(
                rel, line_no, "planstats-clear",
                f"caller-supplied PlanStats* {name} is mutated without "
                "Clear(), wholesale assignment, or forwarding — it would "
                "accumulate across runs (contract: src/core/stats.h)")

    def finish(self, full_tree):
        if full_tree:
            for tag in sorted(set(self.pair_tags) - self.used_tags):
                self.error(
                    self.pairs_path, self.pair_tags[tag], "release-pair",
                    f"catalogue tag '{tag}' is referenced by no release "
                    "store; delete the entry or restore the tag")
            for tag in sorted(set(self.failpoint_tags)
                              - self.used_failpoints):
                self.error(
                    self.failpoints_path, self.failpoint_tags[tag],
                    "failpoint-tag",
                    f"catalogue tag '{tag}' is referenced by no failpoint "
                    "site; delete the entry or restore the site")
        return self.errors


def collect_default_files(root):
    out = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                out.append(os.path.join(dirpath, name))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--root", default=None)
    ap.add_argument("--pairs", default=None)
    ap.add_argument("--failpoints", default=None)
    ap.add_argument("--treat-as-hot", action="store_true",
                    help="apply hot-path-alloc and cancel-coverage to the "
                    "given files")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    pairs = args.pairs or os.path.join(
        root, "scripts", "analyze", "atomics_pairs.txt")
    if not os.path.exists(pairs):
        print(f"qppt_lint: pairing catalogue not found: {pairs}",
              file=sys.stderr)
        return 2
    failpoints = args.failpoints or os.path.join(
        root, "scripts", "analyze", "failpoints.txt")
    if not os.path.exists(failpoints):
        print(f"qppt_lint: failpoint catalogue not found: {failpoints}",
              file=sys.stderr)
        return 2

    full_tree = not args.files
    files = args.files or collect_default_files(root)
    if not files:
        print("qppt_lint: nothing to lint", file=sys.stderr)
        return 2

    linter = Linter(pairs, failpoints)
    for path in files:
        rel = os.path.relpath(os.path.abspath(path), root).replace(
            os.sep, "/")
        linter.lint_file(path, rel, hot_override=args.treat_as_hot)
    errors = linter.finish(full_tree)
    for e in errors:
        print(e)
    if errors:
        print(f"qppt_lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"qppt_lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
