"""The mutation probe's allow-list against the package source."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "mutation_probe", os.path.join(ROOT, "tools", "mutation_probe.py"))
probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(probe)


def test_every_equivalent_id_names_a_site():
    # An edit can remove or renumber a site; its allow-list entry would
    # then excuse nothing, or a different mutant.  Each entry names its
    # site's source line, so a renumbered id fails here too.
    stale = []
    for ident, (line, _) in probe.EQUIVALENT.items():
        module = ident.split(".", 1)[0]
        with open(os.path.join(ROOT, "src", "pinkey", module + ".py")) as fh:
            source = fh.read()
        if (ident, line) not in {(site.ident, site.line) for site in
                                 probe.sites_of(module, source)}:
            stale.append(ident)
    assert not stale
