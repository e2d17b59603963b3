"""The library holds no name that only the tests use.

Second routes that only checks run live in ``tests/conftest.py``.  Every
public top-level function or class of ``src/coulombalg`` must be named
somewhere besides its own definition: in a library module other than
``__init__.py``, in ``demos/`` or in ``perfbench/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_definition_has_a_user_outside_tests():
    modules = {
        p.stem: p.read_text()
        for p in sorted((ROOT / "src" / "coulombalg").glob("*.py"))
        if p.name != "__init__.py"
    }
    texts = list(modules.values())
    texts += [p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    unused = []
    for module, text in modules.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                word = re.compile(rf"\b{node.name}\b")
                if sum(len(word.findall(t)) for t in texts) == 1:  # the definition alone
                    unused.append(f"{module}.{node.name}")
    assert not unused, unused
