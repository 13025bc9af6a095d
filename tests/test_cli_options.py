"""The CLI's option tables, frozen.

Every option of the four parsers is compared field by field (help text
excluded) against a fixed table, so regrouping the option definitions
can never change what a command line means.
"""

import pytest

from repro import cli

ALGORITHMS = ("auto", "muds", "holistic_fun", "baseline")
HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, 0, None, False, "_HelpAction", None, None)
ALGORITHM = (("--algorithm",), "algorithm", "auto", ALGORITHMS, None, None, False, "_StoreAction", None, None)
SEED = (("--seed",), "seed", 0, None, None, None, False, "_StoreAction", "int", None)
DELIMITER = (("--delimiter",), "delimiter", ",", None, None, None, False, "_StoreAction", None, None)
NO_HEADER = (("--no-header",), "no_header", False, None, 0, True, False, "_StoreTrueAction", None, None)
BUDGET = [
    (("--deadline",), "deadline", None, None, None, None, False, "_StoreAction", "float", "SECONDS"),
    (("--max-intersections",), "max_intersections", None, None, None, None, False, "_StoreAction", "int", "N"),
    (("--max-cluster-bytes",), "max_cluster_bytes", None, None, None, None, False, "_StoreAction", "int", "BYTES"),
]
JOBS = (("--jobs",), "jobs", 1, None, None, None, False, "_StoreAction", "int", "N")
STORAGE = (("--storage",), "storage", None, ("encoded", "mmap"), None, None, False, "_StoreAction", None, None)
CHECKPOINT_DIR = (("--checkpoint-dir",), "checkpoint_dir", None, None, None, None, False, "_StoreAction", None, "DIR")
RESULT_CACHE = (("--result-cache",), "result_cache", None, None, None, None, False, "_StoreAction", None, "DIR")
OUTPUT = [
    (("--trace",), "trace", None, None, None, None, False, "_StoreAction", None, "PATH"),
    (("--json",), "json", None, None, None, None, False, "_StoreAction", None, "PATH"),
]
DIRECTORY = ((), "directory", None, None, None, None, True, "_StoreAction", None, None)

#: (option strings, dest, default, choices, nargs, const, required,
#: action class, type, metavar) of every action, per parser.
EXPECTED = {
    "build_parser": [
        HELP, ALGORITHM, SEED, DELIMITER, NO_HEADER, *BUDGET,
        STORAGE, CHECKPOINT_DIR, RESULT_CACHE, *OUTPUT,
        ((), "csv", None, None, "?", None, False, "_StoreAction", None, None),
        (("--dataset",), "dataset", None, None, None, None, False, "_StoreAction", None, None),
        (("--as-published",), "as_published", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--max-rows",), "max_rows", None, None, None, None, False, "_StoreAction", "int", None),
        (("--keep-duplicates",), "keep_duplicates", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--stats",), "stats", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--no-result-cache",), "no_result_cache", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--append",), "append", None, None, None, None, False, "_AppendAction", None, "BATCH_CSV"),
    ],
    "build_schema_parser": [
        HELP, DIRECTORY, ALGORITHM, SEED, DELIMITER, NO_HEADER,
        *BUDGET, JOBS, CHECKPOINT_DIR, *OUTPUT,
        (("--no-resume",), "no_resume", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--max-fk",), "max_fk", None, None, None, None, False, "_StoreAction", "int", "N"),
    ],
    "build_watch_parser": [
        HELP, DIRECTORY, ALGORITHM, SEED, DELIMITER, NO_HEADER,
        STORAGE, *OUTPUT,
        (("--interval",), "interval", 2.0, None, None, None, False, "_StoreAction", "float", "SECONDS"),
        (("--once",), "once", False, None, 0, True, False, "_StoreTrueAction", None, None),
        (("--max-batches",), "max_batches", None, None, None, None, False, "_StoreAction", "int", "N"),
    ],
    "build_cache_parser": [
        HELP, RESULT_CACHE,
        ((), "action", None, ("ls",), None, None, True, "_StoreAction", None, None),
    ],
}

#: Mutually exclusive groups: (required, sorted option strings or dests).
EXPECTED_GROUPS = {
    "build_parser": [(True, ("--dataset", "csv"))],
    "build_schema_parser": [],
    "build_watch_parser": [],
    "build_cache_parser": [],
}


def _fields(action):
    return (
        tuple(action.option_strings),
        action.dest,
        action.default,
        None if action.choices is None else tuple(action.choices),
        action.nargs,
        action.const,
        action.required,
        type(action).__name__,
        None if action.type is None else action.type.__name__,
        action.metavar,
    )


def _name(action):
    return action.option_strings[0] if action.option_strings else action.dest


@pytest.mark.parametrize("builder", sorted(EXPECTED))
def test_option_table_is_unchanged(builder):
    parser = getattr(cli, builder)()
    assert sorted(map(_fields, parser._actions), key=repr) == sorted(
        EXPECTED[builder], key=repr
    )


@pytest.mark.parametrize("builder", sorted(EXPECTED_GROUPS))
def test_mutually_exclusive_groups_are_unchanged(builder):
    parser = getattr(cli, builder)()
    groups = sorted(
        (group.required, tuple(sorted(map(_name, group._group_actions))))
        for group in parser._mutually_exclusive_groups
    )
    assert groups == sorted(EXPECTED_GROUPS[builder])
