"""What ``src/bellcheck`` may define.

Every public module-level function or class must be loaded by some code in
``src/``, be a Library name of the README (``bellcheck.__all__``), or be one
of the few paper claims kept for the acceptance criteria.  Every public
method and dataclass field of a public class must be read in ``src/``, as an
attribute or a keyword argument.  A definition that only tests read belongs
in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import bellcheck

SRC = Path(bellcheck.__file__).resolve().parent

# Claims of the paper that only the acceptance criteria exercise.
PAPER_CLAIMS = {"chsh_value", "chsh_saturation_residual", "lemma1_envelope", "product_factors"}


def public_definitions_and_loads(src: Path) -> tuple[dict[str, str], set[str]]:
    """({public module-level def or class: its module}, {names loaded outside their own def})."""
    defined, loaded = {}, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.stem
            loaded |= {n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own}
    return defined, loaded


def test_every_public_definition_has_a_reader():
    defined, loaded = public_definitions_and_loads(SRC)
    unread = {f"{module}.{name}" for name, module in defined.items()
              if name not in loaded and name not in bellcheck.__all__ and name not in PAPER_CLAIMS}
    assert not unread, f"nothing in src/ reads {sorted(unread)}; move them to tests/oracles.py"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "dataclass"
               for dec in node.decorator_list for n in ast.walk(dec))


def public_members_and_reads(src: Path) -> tuple[dict[str, str], set[str]]:
    """({"module.Class.member": member} for public methods and dataclass fields,
    {attribute and keyword-argument names read anywhere in src/})."""
    members, read = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            owner = f"{path.stem}.{node.name}"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members[f"{owner}.{name}"] = name
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        read |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.keyword)}
    return members, read


def test_every_public_member_has_a_reader():
    members, read = public_members_and_reads(SRC)
    unread = sorted(qualified for qualified, name in members.items() if name not in read)
    assert not unread, f"nothing in src/ reads {unread}; move them to tests/oracles.py"


def test_every_kept_name_exists():
    defined, _ = public_definitions_and_loads(SRC)
    assert PAPER_CLAIMS <= defined.keys()
    assert set(bellcheck.__all__) <= defined.keys()


def test_every_module_level_import_is_read():
    # no linter runs here, so this catches an import that a deletion left behind
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert not unused, f"imported but never read: {unused}"


# Phrases of the input rules that ``tensor.py`` states once for every entry point:
# the norm, the amplitude count, square matrices of one shape, counts of at least
# one, (d, m), fractions in (0, 1), and ASCII decimal integers.
SHARED_RULE_PHRASES = ("not normalized", "amplitudes", "must be square", "dimension mismatch",
                       "at least one", "m >= 2", "must be in (0, 1)",
                       "not an ASCII decimal integer")


def raised_phrases(src: Path) -> dict[str, list[str]]:
    """{phrase: ["module:line" of each raise in src/ whose literal text holds it]}."""
    found = {phrase: [] for phrase in SHARED_RULE_PHRASES}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            for phrase in SHARED_RULE_PHRASES:
                if phrase in text:
                    found[phrase].append(f"{path.stem}:{node.lineno}")
    return found


def test_each_shared_input_rule_is_raised_once_from_tensor():
    found = raised_phrases(SRC)
    strays = {phrase: places for phrase, places in found.items()
              if len(places) != 1 or not places[0].startswith("tensor:")}
    assert not strays, f"state these rules once, in tensor.py, and call them: {strays}"


def test_no_integer_option_is_read_by_int():
    # argparse's ``int`` reads +1, 1_000 and non-ASCII digits; ``tensor.integer`` reads
    # each integer option as circuit files read theirs
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                strays += [f"{path.stem}:{node.lineno}" for k in node.keywords
                           if k.arg == "type" and isinstance(k.value, ast.Name)
                           and k.value.id == "int"]
    assert not strays, f"read these options with tensor.integer: {strays}"


def test_one_seeded_generator_and_one_tolerance():
    # a seeded stream is the numpy Generator ``tensor.rng_stream`` returns, with no
    # wrapper to reach through, and the one small float of src/ is ``tensor.TOL``
    # (``distance`` scales it to its V range rather than padding V by its own)
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (node.id if isinstance(node, ast.Name)
                     else node.name if isinstance(node, ast.ClassDef) else None)
            if (named == "RngStream" or "PAD" in (named or "")
                    or isinstance(node, ast.Attribute) and node.attr == "gen"):
                strays.append(f"{path.stem}:{node.lineno}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-3 and path.stem != "tensor"):
                strays.append(f"{path.stem}:{node.lineno}")
    assert not strays, f"use tensor.rng_stream and tensor.TOL: {strays}"
