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
- Only the command line reads `RunConfig.pipeline_enabled`: it turns the
  switch into a prior table or none, and the code below it post-processes
  exactly when it is handed a table.
- One module starts processes, by `os.fork`, so that is done in one
  place; no module imports the process pools (`multiprocessing`,
  `concurrent.futures`) or calls native code (`ctypes`).
- The number of worker processes is the number of CPUs the process may
  use: no command-line option, configuration key, settings field or
  parameter of the module that starts processes names workers, jobs,
  processes, CPUs or pools.  Like the field check, this goes by name.
- The README names the model format `crf.MODEL_FORMAT_VERSION` writes,
  and names any other `tempex-crf-N` only in a sentence that says it is
  rejected.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tempex"
README = SRC.parents[1] / "README.md"
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


def reads_outside(trees: dict[str, ast.Module], attr: str,
                  owner: str = "cli.py") -> list[str]:
    """`file:line` of each read of an attribute named `attr` outside the
    file `owner`."""
    return [f"{name}:{node.lineno}" for name, tree in trees.items()
            if name != owner for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


POOL_MODULES = ("multiprocessing", "concurrent.futures")
NATIVE_MODULES = ("ctypes",)


def importers(trees: dict[str, ast.Module], modules) -> dict[str, list]:
    """File name -> the lines where it imports one of `modules` or a
    submodule of one."""
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and not node.level:
            return [node.module]
        return []

    found: dict[str, list] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if any(module == m or module.startswith(m + ".")
                   for module in imported(node) for m in modules):
                found.setdefault(name, []).append(node.lineno)
    return found


def fork_calls(trees: dict[str, ast.Module]) -> dict[str, list]:
    """File name -> the lines where it calls `os.fork` or a `fork`
    imported from `os`."""
    found: dict[str, list] = {}
    for name, tree in trees.items():
        imported = any(isinstance(node, ast.ImportFrom)
                       and node.module == "os"
                       and any(alias.name == "fork" for alias in node.names)
                       for node in ast.walk(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr == "fork"
                 and isinstance(func.value, ast.Name)
                 and func.value.id == "os")
                    or (imported and isinstance(func, ast.Name)
                        and func.id == "fork")):
                found.setdefault(name, []).append(node.lineno)
    return found


def process_starters(trees: dict[str, ast.Module]) -> list[str]:
    """The files that fork or import a process pool."""
    return sorted(set(fork_calls(trees)) | set(importers(trees,
                                                         POOL_MODULES)))


PARALLEL_WORDS = re.compile(r"worker|job|process|cpu|core|parallel|pool",
                            re.IGNORECASE)


def parallelism_settings(trees: dict[str, ast.Module],
                         pool_files=()) -> list[str]:
    """`file:line name` of each command-line option (an `add_argument`
    name), configuration key (in `KEYS`), field of the checked classes or
    parameter of a function in `pool_files` whose name speaks of
    parallelism."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            names = []
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                names = [arg.value for arg in node.args
                         if isinstance(arg, ast.Constant)]
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Dict)
                  and any(isinstance(t, ast.Name) and t.id == "KEYS"
                          for t in node.targets)):
                names = [c.value for key in node.value.keys
                         for c in ast.walk(key)
                         if isinstance(c, ast.Constant)]
            elif (isinstance(node, ast.ClassDef)
                  and node.name in CHECKED_CLASSES):
                names = [stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and isinstance(stmt.target, ast.Name)]
            elif name in pool_files and isinstance(node, ast.FunctionDef):
                names = [arg.arg for arg in node.args.args
                         + node.args.kwonlyargs]
            found += [(name, node.lineno, n) for n in names
                      if isinstance(n, str) and PARALLEL_WORDS.search(n)]
    return [f"{name}:{line} {n}" for name, line, n in sorted(found)]


def model_format_version(trees: dict[str, ast.Module]) -> str:
    """The value `crf.py` assigns to `MODEL_FORMAT_VERSION`."""
    [value] = [node.value.value for node in ast.walk(trees["crf.py"])
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["MODEL_FORMAT_VERSION"]]
    return value


def stale_format_names(text: str, current: str) -> list[str]:
    """Each `tempex-crf-N` of `text` other than `current` in a sentence
    that does not say it is rejected."""
    return [name for sentence in re.split(r"(?<=\.)\s+", text)
            for name in re.findall(r"tempex-crf-\d+", sentence)
            if name != current and "reject" not in sentence]


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


def test_only_the_command_line_reads_the_pipeline_switch():
    assert reads_outside(parse_package(), "pipeline_enabled") == []


def test_switch_guard_catches_a_planted_read():
    """A decode core that checks the switch beside the prior table."""
    tree = ast.parse(
        "def label(config, priors):\n"
        "    config.pipeline_enabled = True\n"
        "    if not config.pipeline_enabled or priors is None:\n"
        "        return 'viterbi'\n")
    assert reads_outside({"pipeline.py": tree}, "pipeline_enabled") == [
        "pipeline.py:3"]
    assert reads_outside({"cli.py": tree}, "pipeline_enabled") == []


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


def test_one_module_starts_processes():
    """`evaluation.py` forks its workers itself, through no pool."""
    trees = parse_package()
    assert list(fork_calls(trees)) == ["evaluation.py"]
    assert importers(trees, POOL_MODULES) == {}


def test_one_module_calls_native_code():
    """None does: training sums its inner products with numpy, not
    through BLAS."""
    assert importers(parse_package(), NATIVE_MODULES) == {}


def test_worker_count_is_no_setting():
    trees = parse_package()
    assert process_starters(trees) == ["evaluation.py"]
    assert parallelism_settings(trees, process_starters(trees)) == []


def test_process_guards_catch_planted_violations():
    """A second and a third module that start processes, by a pool and
    by `os.fork`, native calls, and a worker count taken from an option,
    a config key, a field and parameters."""
    pool = ast.parse(
        "import ctypes.util\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def cross_validate(items, fold_fn, n_workers=None):\n"
        "    return ProcessPoolExecutor(n_workers)\n")
    forks = ast.parse(
        "import os\n"
        "from os import fork\n"
        "def spawn(n_processes):\n"
        "    pids = [os.fork() for _ in range(n_processes)]\n"
        "    return pids + [fork()], os.getpid()\n")
    cli = ast.parse(
        "import multiprocessing.pool\n"
        "from . import evaluation\n"
        "p.add_argument('--jobs', type=int, default=None)\n"
        "KEYS = {('run', 'processes'): ('processes', int),\n"
        "        ('run', 'seed'): ('seed', int)}\n"
        "class RunConfig:\n"
        "    cpus: int = 2\n"
        "    seed: int = 490\n")
    trees = {"cli.py": cli, "evaluation.py": pool, "features.py": forks}
    assert importers(trees, POOL_MODULES) == {"cli.py": [1],
                                              "evaluation.py": [2]}
    assert fork_calls(trees) == {"features.py": [4, 5]}
    assert process_starters(trees) == ["cli.py", "evaluation.py",
                                       "features.py"]
    assert importers(trees, NATIVE_MODULES) == {"evaluation.py": [1]}
    assert parallelism_settings(trees, process_starters(trees)) == [
        "cli.py:3 --jobs", "cli.py:4 processes", "cli.py:6 cpus",
        "evaluation.py:3 n_workers", "features.py:3 n_processes"]


def test_readme_names_the_model_format():
    readme = README.read_text(encoding="utf-8")
    current = model_format_version(parse_package())
    assert f"`{current}`" in readme
    assert stale_format_names(readme, current) == []


def test_format_guard_catches_a_stale_name():
    """A format paragraph left at the previous version."""
    text = ("A model file (format `tempex-crf-2`) is six header lines.\n"
            "The earlier `tempex-crf-1` format is rejected by its version;\n"
            "retrain such a model.  `load_model` reads `tempex-crf-2`.")
    assert stale_format_names(text, "tempex-crf-3") == ["tempex-crf-2",
                                                        "tempex-crf-2"]
    assert stale_format_names(text, "tempex-crf-2") == []
