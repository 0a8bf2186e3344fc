"""The simulator never draws from, or seeds, a process-global RNG.

Every random choice in ``src/repro`` comes from a generator the caller
seeds: ``random.Random(seed)`` or ``np.random.default_rng(seed)``.  That
is what makes a result a function of its scenario alone — serial,
parallel, cached and served runs agree without any reseeding between
runs.  This test scans the source tree's syntax, so a new call to
``random.random()``, ``random.seed()``, ``np.random.rand()`` and the like
fails here before it can make a result depend on what ran before it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: seeded-generator constructors — the only calls allowed on the modules
ALLOWED_RANDOM = {"Random"}
ALLOWED_NP_RANDOM = {"default_rng"}


def global_rng_calls(tree):
    """``(line, spelling)`` of every module-level RNG call in ``tree``."""
    random_aliases, numpy_aliases, np_random_aliases = set(), set(), set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name == "random":
                    random_aliases.add(bound)
                elif alias.name == "numpy":
                    numpy_aliases.add(bound)
                elif alias.name == "numpy.random":
                    if alias.asname:
                        np_random_aliases.add(alias.asname)
                    else:
                        numpy_aliases.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            allowed = {
                "random": ALLOWED_RANDOM, "numpy.random": ALLOWED_NP_RANDOM,
            }.get(node.module or "")
            if allowed is None:
                if node.module == "numpy":
                    np_random_aliases.update(
                        a.asname or a.name for a in node.names
                        if a.name == "random"
                    )
                continue
            found.extend(
                (node.lineno, f"from {node.module} import {a.name}")
                for a in node.names
                if a.name not in allowed
            )
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = node.func.value, node.func.attr
        if isinstance(owner, ast.Name) and owner.id in random_aliases:
            if name not in ALLOWED_RANDOM:
                found.append((node.lineno, f"{owner.id}.{name}()"))
        elif isinstance(owner, ast.Name) and owner.id in np_random_aliases:
            if name not in ALLOWED_NP_RANDOM:
                found.append((node.lineno, f"{owner.id}.{name}()"))
        elif (isinstance(owner, ast.Attribute) and owner.attr == "random"
              and isinstance(owner.value, ast.Name)
              and owner.value.id in numpy_aliases):
            if name not in ALLOWED_NP_RANDOM:
                found.append(
                    (node.lineno, f"{owner.value.id}.random.{name}()")
                )
    return sorted(found)


def scan(source):
    return global_rng_calls(ast.parse(source))


def test_source_tree_draws_from_no_global_rng():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for line, spelling in global_rng_calls(ast.parse(path.read_text())):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}: {spelling}")
    assert not offenders, "process-global RNG use:\n" + "\n".join(offenders)


def test_seeded_generators_are_allowed():
    assert scan(
        "import random\nimport numpy as np\n"
        "rng = random.Random(3)\nrng.random()\n"
        "gen = np.random.default_rng(3)\ngen.normal()\n"
        "def f(r: random.Random, g: np.random.Generator): pass\n"
    ) == []


def test_global_draws_and_seeds_are_rejected():
    found = scan(
        "import random\nimport numpy as np\n"
        "def f():\n"
        "    import numpy as _np\n"
        "    random.seed(1)\n"
        "    _np.random.seed(2)\n"
        "    return random.choice([1, 2]) + np.random.rand()\n"
    )
    assert {spelling for _, spelling in found} == {
        "random.seed()",
        "_np.random.seed()",
        "random.choice()",
        "np.random.rand()",
    }


def test_global_rng_imports_are_rejected():
    found = scan(
        "from random import shuffle, Random\n"
        "from numpy.random import default_rng, randint\n"
        "from numpy import random as npr\n"
        "npr.uniform()\n"
    )
    assert {spelling for _, spelling in found} == {
        "from random import shuffle",
        "from numpy.random import randint",
        "npr.uniform()",
    }
