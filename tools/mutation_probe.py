#!/usr/bin/env python3
"""Mutation probe: does the tier-1 suite fail when the program is wrong?

Copies the repository (without ``.git`` and caches) into a work
directory outside it, and for each sampled mutation site writes one
module of the copy back with a single change:

    + <-> -,  < <-> <=,  > <-> >=,  == <-> !=,  * -> //,  ^ -> |,
    >> -> <<,  min <-> max,  an integer constant + 1

(``min``/``max`` covers the builtins, ``np.minimum``/``np.maximum`` and
the ``.min()``/``.max()`` methods).  It then runs the whole tier-1 suite
on the copy with ``-x``, after the mutated module's own test file (a
quick kill for most mutants).  A mutant the suite passes survives.
Survivors named in ``EQUIVALENT`` (changes no test can see, each with
the source line it sits on and its reason) are reported apart; any other
survivor, or one whose line no longer matches, is new, and the exit
status is then 1.

    python tools/mutation_probe.py --workdir /tmp/probe
    python tools/mutation_probe.py --workdir /tmp/probe \\
        --functions wireless._rates wireless.multiplexing_gain_sweep

It samples ``PER_MODULE`` sites in each of seven modules: the ones
whose ``sha256(f"{SEED}:{site id}")`` sort first.  So the site ids in
``EQUIVALENT`` name the same mutants on every run, and an edit elsewhere
in a module keeps a sampled site in the sample while its id stands;
with ``--functions`` every site in the named functions is probed as
well.  The ``EQUIVALENT`` entries that a run does not reach are listed
at the end.  The suite must pass on the unmutated copy first, or the
probe exits 2.  Mutants run one after another; a full run takes 15 to 20
minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("rates", "protocol", "distillation", "infotools", "pipeline",
           "model", "wireless")
SEED = 13
PER_MODULE = 18
TIMEOUT_S = 900.0  # per mutant; a mutant that runs longer counts as killed

# Left out of the copy: the suite reads the rest (the README's example
# configs, BENCHMARK.json).
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".perfbench",
                                 ".hypothesis", ".pytest_cache",
                                 ".benchmarks", "*.egg-info")

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
         ast.BitXor: ast.BitOr, ast.RShift: ast.LShift,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
CALLS = {"min": "max", "max": "min", "minimum": "maximum",
         "maximum": "minimum"}

# Survivors that change nothing the suite can observe, by site id
# (module.function:change#n, n counting that change within the function),
# each with the stripped source line the site starts on and the reason.
# An edit can renumber the ids; the line pins each entry to its mutant.
EQUIVALENT: Dict[str, Tuple[str, str]] = {
    "protocol.<module>:1->2#2": (
        "_XOR_CALL_BYTES = 1 << 14",
        "_XOR_CALL_BYTES is a cost-model constant: it picks one or two "
        "FFT rows, and both give the same keys"),
    "protocol.<module>:1->2#3": (
        "_FFT_POINT_BYTES = 1 << 5",
        "_FFT_POINT_BYTES is a cost-model constant: it picks one or two "
        "FFT rows, and both give the same keys"),
    "infotools._entropy_terms:1->2#0": (
        "if top + 1 <= nz.size:",
        "the lookup-table switch: both branches give the same bits"),
    "infotools._bin_major_counts:1->2#1": (
        "by_bin = inverse.reshape(1 << key_bits, -1)",
        "numpy reads any negative size in reshape as the inferred one"),
    "infotools._bin_major_counts:1->2#6": (
        "table[lo:lo + rows] = counts.reshape(rows, -1)",
        "numpy reads any negative size in reshape as the inferred one"),
    "infotools._plugin_mi_rows:1->2#0": (
        "joint_p = (joint / n).reshape(-1, k_x, k_y)",
        "numpy reads any negative size in reshape as the inferred one"),
    "infotools._plugin_mi_rows:1->2#2": (
        "- h_mm(joint_p.reshape(len(joint), -1)))",
        "numpy reads any negative size in reshape as the inferred one"),
    "distillation.<module>:1->2#0": (
        "_SCATTER_BLOCK = 1 << 16",
        "the scatter's block size sets only how many entries each step "
        "writes: every power of two gives the same inverse, and 2^17 "
        "blocks (1.5 MiB of buffers) stay under the build's narrowing "
        "peak"),
    "distillation.RbCodebook.__init__:1->2#2": (
        "inverse = np.full(total, -1, dtype=np.int32)",
        "any negative fill marks an unwritten slot: the check is "
        "inverse.min() < 0, and a permutation overwrites every slot"),
    "pipeline._truncation:LtE->Lt#0": (
        "if total <= budget:",
        "at a total equal to the budget, b * budget // total is b"),
    "model._sample_side:Lt->LtE#0": (
        "flips = (rng.random(n) < crossover).astype(np.uint8)",
        "differs only when a uniform draw equals the crossover exactly "
        "(probability at most 2**-53 per draw)"),
    "wireless._network_rates:1->2#0": (
        "np.reshape(powers, (-1, 1, 1)), config.noise_var,",
        "numpy reads any negative size in reshape as the inferred one"),
    "wireless._relay_compositions:1->2#4": (
        "slots = np.arange(1, longest + 1, dtype=dtype)",
        "slots is read only as slots[:b - q + 1], never past its first "
        "longest entries"),
    "wireless._relay_compositions:1->2#12": (
        "for b in range(top, q - 1, -1):",
        "the extra budget b = q-1 has C(q-2, q-1) = 0 compositions, so "
        "its block is empty"),
    "wireless.optimize_allocation:1->2#5": (
        "stride = tab.shape[-1]",
        "the rate table is square in its last two axes"),
    "wireless.optimize_allocation:Sub->Add#5": (
        "dtype = np.min_scalar_type(gu.size - 1)",
        "the index dtype of gu.size + 1 is at most one size wider and "
        "holds the same indices"),
    "wireless.optimize_allocation:1->2#8": (
        "dtype = np.min_scalar_type(gu.size - 1)",
        "gu.size = (T-M-1)(T-M)M is even, so gu.size - 1 is never the "
        "256, 65536 or 2**32 at which gu.size - 2 would take a narrower "
        "dtype"),
    "wireless.optimize_allocation:1->2#12": (
        "t_as, b_edges = (e.reshape(-1, 2).tolist() for e in np.nonzero(",
        "numpy reads any negative size in reshape as the inferred one"),
    "wireless.optimize_allocation.best_of:1->2#0": (
        "hi = cols - math.comb(block_len - t_a - b_last - 1, m)",
        "scores one more t_B of the same t_A: an allocation that is "
        "scored anyway or whose bound is below the floor"),
}


class Site(NamedTuple):
    module: str
    ident: str      # module.function:change#n
    index: int      # position in the module's walk order
    line: str       # the stripped source line the site starts on


def _label(node) -> str:
    return type(node).__name__


class _Sites(ast.NodeVisitor):
    """Every mutable node of one module, in walk order, each with the id
    of its site."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []
        self.seen: Dict[str, int] = {}

    def _add(self, node, change: str) -> None:
        key = f"{self.module}.{'.'.join(self.scope) or '<module>'}:{change}"
        n = self.seen.get(key, 0)
        self.seen[key] = n + 1
        self.found.append((node, f"{key}#{n}"))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_Expr(self, node):
        if not isinstance(node.value, ast.Constant):  # skip docstrings
            self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in SWAPS:
            self._add(node, f"{_label(node.op)}->"
                            f"{SWAPS[type(node.op)].__name__}")
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp

    def visit_Compare(self, node):
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS:
                self._add((node, j), f"{_label(op)}->"
                                     f"{SWAPS[type(op)].__name__}")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in CALLS:
            self._add(node, f"{name}->{CALLS[name]}")
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int:
            self._add(node, f"{node.value}->{node.value + 1}")


def sites_of(module: str, source: str) -> List[Site]:
    finder = _Sites(module)
    finder.visit(ast.parse(source))
    lines, sites = source.splitlines(), []
    for i, (node, ident) in enumerate(finder.found):
        start = (node[0] if isinstance(node, tuple) else node).lineno
        sites.append(Site(module, ident, i, lines[start - 1].strip()))
    return sites


def mutate(source: str, site: Site) -> str:
    """The module source with the one change of ``site``."""
    tree = ast.parse(source)
    finder = _Sites(site.module)
    finder.visit(tree)
    node, ident = finder.found[site.index]
    assert ident == site.ident
    if isinstance(node, tuple):
        node, j = node
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            func.id = CALLS[func.id]
        else:
            func.attr = CALLS[func.attr]
    else:
        node.value += 1
    return ast.unparse(tree) + "\n"


def run_suite(work: str, module: str):
    """(passed, first failure or reason) of the module's own test file,
    then, if it passes, of all of tier-1, on the copy."""
    # no bytecode cache: a mutant and the original can share a size and
    # an mtime second, and Python would then load a stale .pyc
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for paths in ([os.path.join("tests", f"test_{module}.py")],
                  ["tests", "perfbench"]):
        # the allow-list test reads the source, so it fails on every
        # mutant of an allow-listed site, equivalent or not
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
               "-p", "no:cacheprovider", "--continue-on-collection-errors",
               "--ignore", os.path.join("tests", "test_mutation_probe.py"),
               *paths]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timeout after {TIMEOUT_S:.0f} s"
        if proc.returncode != 0:
            failed = [line.split(" ", 1)[1].split(" - ")[0]
                      for line in proc.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            return False, failed[0] if failed else f"exit {proc.returncode}"
    return True, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", help="directory for the copy "
                        "(default: a new temporary directory)")
    parser.add_argument("--functions", nargs="*", default=[],
                        metavar="MODULE.FUNCTION",
                        help="also probe every site in these functions")
    args = parser.parse_args(argv)

    work = os.path.abspath(args.workdir or
                           tempfile.mkdtemp(prefix="mutation_probe_"))
    if os.path.commonpath([work, ROOT]) == ROOT:
        parser.error("--workdir must lie outside the repository")
    shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=IGNORED)
    # a suite that fails unmutated would count every mutant as killed (the
    # module only picks which test file runs first)
    passed, why = run_suite(work, MODULES[0])
    if not passed:
        print(f"the unmutated copy fails the suite: {why}", file=sys.stderr)
        return 2

    chosen: List[Site] = []
    sources = {}
    for module in MODULES:
        path = os.path.join(work, "src", "pinkey", module + ".py")
        with open(path) as fh:
            sources[module] = fh.read()
        sites = sites_of(module, sources[module])
        picked = sorted(sites, key=lambda site: hashlib.sha256(
            f"{SEED}:{site.ident}".encode()).digest())[:PER_MODULE]
        extra = [s for s in sites if s not in picked and
                 s.ident.split(":")[0] in args.functions]
        chosen += sorted(picked + extra, key=lambda s: s.index)

    survivors, equivalent, killed = [], [], 0
    start = time.perf_counter()
    for site in chosen:
        path = os.path.join(work, "src", "pinkey", site.module + ".py")
        with open(path, "w") as fh:
            fh.write(mutate(sources[site.module], site))
        try:
            passed, why = run_suite(work, site.module)
        finally:
            with open(path, "w") as fh:
                fh.write(sources[site.module])
        if not passed:
            killed += 1
            verdict = f"killed by {why}"
        elif EQUIVALENT.get(site.ident, ("",))[0] == site.line:
            equivalent.append(site.ident)
            verdict = f"survived, equivalent: {EQUIVALENT[site.ident][1]}"
        else:
            survivors.append(site.ident)
            verdict = "SURVIVED"
        print(f"{site.ident}  {verdict}", flush=True)

    print(f"\n{len(chosen)} mutants in {time.perf_counter() - start:.0f} s: "
          f"{killed} killed, {len(equivalent)} equivalent survivors, "
          f"{len(survivors)} new survivors")
    for ident in survivors:
        print(f"new survivor: {ident}")
    run = {site.ident for site in chosen}
    for ident in EQUIVALENT:
        if ident not in run:
            print(f"equivalent, not run: {ident}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
