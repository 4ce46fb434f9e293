"""Core statlint machinery: findings, suppressions, baseline, registry.

A checker is a class with a ``rule`` id, a ``description``, and a
``run(project)`` method yielding :class:`Finding`s; ``@register`` adds
it to the registry the CLI runs. Checkers see a :class:`Project` — every
parsed module — so cross-module analyses (lock ordering) get the whole
picture in one pass.

Suppressions are per-line comments with a *required* justification::

    risky()  # statlint: disable=lock-discipline -- snapshot read; staleness is fine

A suppression without the ``-- <why>`` tail does not suppress anything
and is itself reported under the ``suppression-hygiene`` rule, as is a
``disable=`` naming an unknown rule.

The baseline file (``.statlint-baseline.json``) grandfathers known
findings: with ``--fail-on-new`` only findings *not* in the baseline
fail the run. Baseline identity is ``(rule, path, message)`` — line
numbers are deliberately excluded so unrelated edits don't churn it.
"""

import ast
import json
import os
import re
import tokenize
from collections import Counter

#: ``# statlint: disable=rule[,rule] -- justification``
_SUPPRESS = re.compile(
    r"#\s*statlint:\s*disable=([A-Za-z0-9_,-]+)\s*(?:--\s*(\S.*))?$")
#: ``# statlint: holds=<lock>[,<lock>]`` — caller-holds-lock contract.
_HOLDS = re.compile(r"#\s*statlint:\s*holds=([A-Za-z0-9_.,]+)")


class Finding:
    """One reported violation, anchored to a file and line."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        return (self.rule, self.path, self.message)

    def to_json(self):
        return {"rule": self.rule, "path": self.path,
                "line": self.line, "message": self.message}

    def render(self):
        return "%s:%d: %s: %s" % (self.path, self.line, self.rule,
                                  self.message)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "Finding(%r)" % (self.render(),)

    def __eq__(self, other):
        return (isinstance(other, Finding)
                and self.to_json() == other.to_json())


class Suppression:
    __slots__ = ("line", "rules", "justification")

    def __init__(self, line, rules, justification):
        self.line = line
        self.rules = rules
        self.justification = justification


class SourceModule:
    """A parsed python file plus its statlint comment annotations."""

    def __init__(self, path, relpath, text):
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=relpath)
        self.suppressions = {}   # line -> Suppression
        self.holds = {}          # line -> set of lock specs
        self._scan_comments()

    def _scan_comments(self):
        for number, line in enumerate(self.lines, start=1):
            if "statlint" not in line:
                continue
            match = _SUPPRESS.search(line)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")
                         if part.strip()}
                self.suppressions[number] = Suppression(
                    number, rules, match.group(2))
            match = _HOLDS.search(line)
            if match:
                self.holds[number] = {part.strip()
                                      for part in match.group(1).split(",")
                                      if part.strip()}

    def finding(self, rule, node_or_line, message):
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(rule, self.relpath, line, message)

    def def_comment_lines(self, func):
        """Lines whose comments annotate ``func``'s signature.

        The def line through the line the body starts on, so markers
        survive signatures wrapped over several lines.
        """
        body_start = func.body[0].lineno if func.body else func.lineno
        return range(func.lineno, body_start + 1)

    def func_holds(self, func):
        held = set()
        for line in self.def_comment_lines(func):
            held |= self.holds.get(line, set())
        return held


class Project:
    """All modules under analysis, shared by every checker."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._by_relpath = {mod.relpath: mod for mod in self.modules}

    def module(self, relpath):
        return self._by_relpath.get(relpath)


# --------------------------------------------------------------------------
# Checker registry

_CHECKERS = []


def register(cls):
    """Class decorator adding a checker to the global registry."""
    _CHECKERS.append(cls)
    return cls


def all_checkers():
    return [cls() for cls in _CHECKERS]


def rule_ids():
    return sorted(cls.rule for cls in _CHECKERS)


@register
class SuppressionHygiene:
    """Suppression comments must be justified and name real rules."""

    rule = "suppression-hygiene"
    description = ("a '# statlint: disable=' comment must carry a "
                   "'-- <justification>' tail and name known rules")

    def run(self, project):
        known = set(rule_ids())
        for mod in project.modules:
            for sup in mod.suppressions.values():
                if not sup.justification:
                    yield mod.finding(
                        self.rule, sup.line,
                        "suppression without justification: append "
                        "'-- <why this is safe>' or remove it")
                for name in sorted(sup.rules - known):
                    yield mod.finding(
                        self.rule, sup.line,
                        "suppression names unknown rule '%s'" % (name,))


# --------------------------------------------------------------------------
# Running

def iter_python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith(".")
                                 and d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif path.endswith(".py"):
            yield path


def load_project(paths):
    """Parse every python file under ``paths``; unparsable files error."""
    modules = []
    errors = []
    for filename in iter_python_files(paths):
        relpath = os.path.relpath(filename).replace(os.sep, "/")
        try:
            with tokenize.open(filename) as handle:
                text = handle.read()
            modules.append(SourceModule(filename, relpath, text))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append("%s: cannot analyze: %s" % (relpath, exc))
    return Project(modules), errors


def _apply_suppressions(project, findings):
    """Drop findings silenced by a *justified* same-line suppression."""
    kept = []
    for finding in findings:
        if finding.rule == SuppressionHygiene.rule:
            kept.append(finding)
            continue
        mod = project.module(finding.path)
        sup = mod.suppressions.get(finding.line) if mod else None
        if (sup is not None and sup.justification
                and (finding.rule in sup.rules or "all" in sup.rules)):
            continue
        kept.append(finding)
    return kept


def analyze_paths(paths, rules=None):
    """Run (selected) checkers over ``paths``.

    Returns ``(findings, errors)``; findings are suppression-filtered
    and sorted by location.
    """
    project, errors = load_project(paths)
    findings = []
    for checker in all_checkers():
        if rules is not None and checker.rule not in rules:
            continue
        findings.extend(checker.run(project))
    findings = _apply_suppressions(project, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings, errors


# --------------------------------------------------------------------------
# Baseline

class Baseline:
    """Multiset of grandfathered findings keyed by (rule, path, message)."""

    VERSION = 1

    def __init__(self, counts=None):
        self.counts = Counter(counts or ())

    @classmethod
    def from_findings(cls, findings):
        return cls(finding.key() for finding in findings)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != cls.VERSION:
            raise ValueError("unsupported baseline version: %r"
                             % (payload.get("version"),))
        return cls((entry["rule"], entry["path"], entry["message"])
                   for entry in payload["findings"])

    def save(self, path):
        entries = [{"rule": rule, "path": rel, "message": message}
                   for (rule, rel, message), count in
                   sorted(self.counts.items()) for _ in range(count)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": self.VERSION, "findings": entries},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")

    def partition(self, findings):
        """Split ``findings`` into (new, grandfathered) against this
        baseline; a baseline entry absorbs at most ``count`` findings."""
        budget = Counter(self.counts)
        new, old = [], []
        for finding in findings:
            if budget[finding.key()] > 0:
                budget[finding.key()] -= 1
                old.append(finding)
            else:
                new.append(finding)
        return new, old
