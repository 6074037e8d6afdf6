"""What importing dlocal loads: only the code that computing runs.

Each check runs in a fresh interpreter, so modules that an earlier test
imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys

import dlocal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dlocal.__file__)))

ALL = [
    "Component",
    "HighestWeight",
    "LittelmannPattern",
    "LocalPart",
    "RingElem",
    "RootSystemD",
    "VerificationReport",
    "bourbaki_permutation",
    "build_root_system",
    "check_all",
    "check_dimension",
    "check_example2",
    "check_rank2",
    "check_tokuyama",
    "component_structure",
    "count_patterns",
    "critical_positions",
    "enumerate_decorated",
    "gauss_symbol",
    "kubota_local",
    "local_part",
    "pattern_contribution",
    "render_decorated",
    "row_chain_pairs",
    "sigma_entry",
    "tokuyama_product",
    "weight_vector",
    "weyl_dimension",
]


def added_modules(statement: str) -> set:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh interpreter."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


def test_import_dlocal_loads_no_dataclasses_fractions_or_suites():
    added = added_modules("import dlocal")
    assert "dlocal.pattern" in added  # the check saw the import
    assert added.isdisjoint({"dataclasses", "inspect", "fractions", "dlocal.oracle"})


def test_import_cli_loads_no_dataclasses():
    added = added_modules("import dlocal.cli")
    assert "dlocal.local_part" in added  # the check saw the import
    assert added.isdisjoint({"dataclasses", "inspect"})


def test_import_cli_loads_neither_the_suites_nor_fractions():
    added = added_modules("import dlocal.cli")
    assert "dlocal.cli" in added
    assert added.isdisjoint({"dlocal.oracle", "fractions"})


def test_suites_load_on_first_use():
    added = added_modules(
        "import dlocal\n"
        "from dlocal import check_all\n"
        "assert check_all is dlocal.check_all is dlocal.oracle.check_all"
    )
    assert "dlocal.oracle" in added


def test_public_names_are_unchanged():
    assert dlocal.__all__ == ALL
    assert all(hasattr(dlocal, name) for name in ALL)
    namespace = {}
    exec("from dlocal import *", namespace)
    assert set(ALL) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(dlocal, "no_such_name")
