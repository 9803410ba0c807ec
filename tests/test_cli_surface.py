"""The CLI surface is pinned across refactors of ``cli.py``: for every
subcommand, the flags it accepts, each flag's ``dest``/``default``/``type``/
``choices``/``help``, and the namespace a bare invocation parses to.

The golden is structural (argparse actions), not rendered ``--help`` text,
which differs between Python 3.11 and 3.12.  Regenerate
(``PYTHONPATH=src python tests/test_cli_surface.py``) only in a commit that
changes a flag on purpose.
"""

import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_surface.json"

#: Positionals a bare invocation cannot do without.
MINIMAL_ARGV = {"check-many": ["a.txt"]}

#: Namespace entries that say which function runs the command, not what the
#: command line means.
DISPATCH_ATTRS = {"func"}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def surface():
    parser = build_parser()
    out = {}
    for name, sub in _subparsers(parser).items():
        actions = [a for a in sub._actions if a.dest != "help"]
        parsed = vars(parser.parse_args([name, *MINIMAL_ARGV.get(name, [])]))
        out[name] = {
            "options": sorted(s for a in actions for s in a.option_strings),
            "actions": {
                a.dest: {
                    "flags": list(a.option_strings),
                    "default": a.default,
                    "type": a.type.__name__ if a.type is not None else None,
                    "choices": list(a.choices) if a.choices is not None else None,
                    "help": a.help,
                }
                for a in actions
            },
            "parsed": {
                k: v for k, v in parsed.items() if k not in DISPATCH_ATTRS
            },
        }
    return out


def test_nineteen_subcommands():
    assert len(_subparsers(build_parser())) == 19


def test_surface_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(surface()))  # tuples -> lists, like the file
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], f"`repro {name}` surface changed"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(surface(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
