"""``exception-hygiene`` — no silent failure channels.

Two shapes are findings:

* ``except:`` (bare) — catches ``SystemExit``/``KeyboardInterrupt``
  and hides typos alike; name the exception;
* ``except BaseException`` without a ``raise`` anywhere in the handler
  — a BaseException catch is only legitimate as a *poisoning* pattern
  that re-surfaces the error on another path, and that contract is
  exactly what a justified suppression documents.

``raise`` statements inside functions nested in the handler do not
count as a re-surface path.
"""

import ast

from repro.tools.statlint.core import register


def _exception_names(type_node):
    """Names a handler catches: ``X``, ``mod.X`` or a tuple of both."""
    if type_node is None:
        return set()
    nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
             else [type_node])
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _contains_raise(body):
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


@register
class ExceptionHygiene:
    rule = "exception-hygiene"
    description = ("no bare 'except:'; 'except BaseException' must "
                   "re-raise (or justify its poisoning contract)")

    def run(self, project):
        for mod in project.modules:
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = _exception_names(node.type)
                if node.type is None:
                    yield mod.finding(
                        self.rule, node,
                        "bare 'except:' catches KeyboardInterrupt/"
                        "SystemExit; name the exception type")
                elif ("BaseException" in caught
                        and not _contains_raise(node.body)):
                    yield mod.finding(
                        self.rule, node,
                        "'except BaseException' without a 'raise'; "
                        "narrow it, re-raise, or document the re-surface "
                        "path with a justified suppression")
