"""Static checks over the package source, read with `ast`.

- No call reads the clock (`date.today`, `datetime.now`, ...): a run's
  output depends on its inputs alone.
- Nothing reads the environment (`os.environ`, `os.getenv`): every
  setting is a flag or a configuration field, where it can be checked.
- Every field of the run configuration, feature configuration, training
  configuration and model classes is read somewhere in the package.  A
  field nobody reads is a setting that changes nothing.  Reads are found
  by attribute name, so the check is coarse: it catches a field whose
  name is read nowhere, which is how an unused flag looks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tempex"
CHECKED_CLASSES = ("RunConfig", "FeatureConfig", "TrainConfig", "CrfModel")
CLOCK_CALLS = {("date", "today"), ("datetime", "now"),
               ("datetime", "today"), ("datetime", "utcnow")}


def parse_package() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def clock_calls(trees: dict[str, ast.Module]) -> list[str]:
    """`file:line name.attr` of each call of a clock-reading function."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            owner_name = (owner.id if isinstance(owner, ast.Name) else
                          owner.attr if isinstance(owner, ast.Attribute)
                          else None)
            if (owner_name, node.func.attr) in CLOCK_CALLS:
                found.append(f"{name}:{node.lineno} "
                             f"{owner_name}.{node.func.attr}")
    return found


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(trees: dict[str, ast.Module]) -> list[str]:
    """`file:line os.name` of each use of `os.environ` or `os.getenv`
    (and their bytes forms), imported names included, in line order."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ENVIRONMENT_NAMES):
                found.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(name, node.lineno, alias.name)
                          for alias in node.names
                          if alias.name in ENVIRONMENT_NAMES]
    return [f"{name}:{line} os.{attr}" for name, line, attr in sorted(found)]


def unread_fields(trees: dict[str, ast.Module],
                  classes=CHECKED_CLASSES) -> list[str]:
    """`Class.field` of each annotated field of `classes` whose name no
    attribute read in `trees` uses."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                unread += [f"{node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)
                           and stmt.target.id not in read]
    return unread


def test_checked_classes_exist():
    defined = {node.name for tree in parse_package().values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert set(CHECKED_CLASSES) <= defined


def test_no_clock_reads():
    assert clock_calls(parse_package()) == []


def test_no_environment_reads():
    assert environment_reads(parse_package()) == []


def test_every_setting_is_read():
    assert unread_fields(parse_package()) == []


def test_guards_catch_what_they_guard():
    """A flag set in a profile and read nowhere, and a hidden clock."""
    tree = ast.parse(
        "from datetime import date\n"
        "class FeatureConfig:\n"
        "    use_gazetteers: bool = False\n"
        "    use_wordnet: bool = False\n"
        "def rows(config):\n"
        "    if config.use_gazetteers:\n"
        "        return date.today()\n")
    assert unread_fields({"f.py": tree}) == ["FeatureConfig.use_wordnet"]
    assert clock_calls({"f.py": tree}) == ["f.py:7 date.today"]


def test_environment_guard_catches_planted_reads():
    """A batch size read from the environment, three ways."""
    tree = ast.parse(
        "import os\n"
        "from os import getenv\n"
        "BATCH = int(os.environ.get('TEMPEX_BATCH', 512))\n"
        "LIMIT = os.getenv('TEMPEX_LIMIT')\n"
        "path = os.path.join('a', 'b')\n")
    assert environment_reads({"f.py": tree}) == [
        "f.py:2 os.getenv", "f.py:3 os.environ", "f.py:4 os.getenv"]
