"""The step registry: typed, named wrappers over the lab primitives.

A *step* is the unit a declarative workflow composes: a registered
function that receives a :class:`~repro.workflow.context.WorkflowContext`
plus keyword parameters and issues one script statement's worth of
guarded device commands.  One step execution is one script line,
whether it issues a single raw command (``move``) or a Fig. 5
composite helper's five (``pick_up_object``) — the granularity the
fault injector mutates.

Each step's parameters are *typed* and introspected from the function
signature at registration time, so a workflow spec is validated before
anything touches a device: unknown steps, unknown parameters, missing
required parameters, and type mismatches are all load-time errors with
messages naming the offending node.

Registration follows the percell3 ``StepRegistry`` idiom: a module-level
default registry populated by the :func:`step` decorator, plus
instantiable registries so tests can build sandboxed step sets.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "StepError",
    "StepParam",
    "StepSpec",
    "StepRegistry",
    "REGISTRY",
    "bind_params",
    "step",
]


class StepError(ValueError):
    """A step definition or binding problem (load-time, never mid-run)."""


#: Parameter kinds a step may declare, and their Python acceptance rules.
#: ``location`` is the union the lab primitives themselves accept: a
#: named location (str) or explicit ``[x, y, z]`` coordinates.
_KINDS: Dict[str, str] = {
    "str": "a string",
    "float": "a number",
    "int": "an integer",
    "bool": "a boolean",
    "coords": "a list of 3 numbers",
    "location": "a location name or a list of 3 numbers",
}

#: Annotation -> kind mapping used by signature introspection.
_ANNOTATION_KINDS: Dict[Any, str] = {
    str: "str",
    float: "float",
    int: "int",
    bool: "bool",
    "str": "str",
    "float": "float",
    "int": "int",
    "bool": "bool",
    "coords": "coords",
    "location": "location",
}


def _is_coords(value: Any) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    )


def _coerce(kind: str, value: Any) -> Any:
    """Validate *value* against *kind*; returns the normalized value.

    Raises :class:`StepError` on mismatch.  Numeric widening (int where a
    float is expected) is the only silent coercion; everything else must
    match exactly so specs stay unambiguous.
    """
    if kind == "str":
        if isinstance(value, str):
            return value
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == "bool":
        if isinstance(value, bool):
            return value
    elif kind == "coords":
        if _is_coords(value):
            return [float(v) for v in value]
    elif kind == "location":
        if isinstance(value, str):
            return value
        if _is_coords(value):
            return [float(v) for v in value]
    else:  # pragma: no cover - registration guards against unknown kinds
        raise StepError(f"unknown parameter kind {kind!r}")
    raise StepError(f"expected {_KINDS[kind]}, got {value!r}")


@dataclass(frozen=True)
class StepParam:
    """One typed parameter of a step."""

    name: str
    kind: str
    required: bool
    default: Any = None

    def describe(self) -> str:
        """Human rendering for ``workflow list --steps``."""
        if self.required:
            return f"{self.name}: {self.kind}"
        return f"{self.name}: {self.kind} = {self.default!r}"


def bind_params(
    kind: str, name: str, table: Tuple[StepParam, ...], given: Mapping[str, Any]
) -> Dict[str, Any]:
    """Validate and normalize *given* against parameter *table*.

    Returns the complete keyword dict (defaults filled in).  Raises
    :class:`StepError` naming the *kind* (``step`` or ``preset``), its
    *name* and the parameter on any unknown, missing, or mistyped entry.
    """
    known = {p.name: p for p in table}
    for param_name in given:
        if param_name not in known:
            raise StepError(
                f"{kind} {name!r} has no parameter {param_name!r}; "
                f"parameters: {sorted(known)}"
            )
    bound: Dict[str, Any] = {}
    for param in table:
        if param.name in given:
            try:
                bound[param.name] = _coerce(param.kind, given[param.name])
            except StepError as exc:
                raise StepError(
                    f"{kind} {name!r}, parameter {param.name!r}: {exc}"
                ) from None
        elif param.required:
            raise StepError(f"{kind} {name!r} requires parameter {param.name!r}")
        else:
            bound[param.name] = param.default
    return bound


@dataclass(frozen=True)
class StepSpec:
    """A registered step: callable + typed parameter table."""

    name: str
    fn: Callable[..., Any]
    params: Tuple[StepParam, ...]
    description: str

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and normalize *params* against the declared table.

        Returns the complete keyword dict (defaults filled in) ready to
        pass to the step function.  Raises :class:`StepError` naming the
        parameter on any unknown, missing, or mistyped entry.
        """
        return bind_params("step", self.name, self.params, params)

    def signature(self) -> str:
        """``name(param: kind, ...)`` — the catalog rendering."""
        inner = ", ".join(p.describe() for p in self.params)
        return f"{self.name}({inner})"


def _introspect_params(
    name: str, fn: Callable[..., Any], skip_first: bool = True
) -> Tuple[StepParam, ...]:
    """Derive the typed parameter table from *fn*'s signature.

    With ``skip_first`` (the step convention) the first positional
    parameter is the context and is skipped; every other parameter must
    be keyword-bindable and annotated with a supported kind.  Preset
    builders introspect with ``skip_first=False``.
    """
    params: List[StepParam] = []
    signature = inspect.signature(fn)
    names = list(signature.parameters.values())
    if skip_first and not names:
        raise StepError(f"step {name!r} must accept a context argument")
    for parameter in names[1:] if skip_first else names:
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            raise StepError(
                f"step {name!r}: *args/**kwargs parameters are not allowed"
            )
        annotation = parameter.annotation
        if isinstance(annotation, str):
            # Under ``from __future__ import annotations`` a quoted
            # annotation like ``"location"`` arrives as ``"'location'"``.
            annotation = annotation.strip("'\"")
        if annotation is inspect.Parameter.empty:
            raise StepError(
                f"step {name!r}: parameter {parameter.name!r} needs a type "
                f"annotation (one of {sorted(_KINDS)})"
            )
        kind = _ANNOTATION_KINDS.get(annotation)
        if kind is None:
            raise StepError(
                f"step {name!r}: parameter {parameter.name!r} has unsupported "
                f"annotation {annotation!r} (use one of {sorted(_KINDS)})"
            )
        required = parameter.default is inspect.Parameter.empty
        params.append(
            StepParam(
                name=parameter.name,
                kind=kind,
                required=required,
                default=None if required else parameter.default,
            )
        )
    return tuple(params)


@dataclass
class StepRegistry:
    """A named collection of steps; the default instance is :data:`REGISTRY`."""

    steps: Dict[str, StepSpec] = field(default_factory=dict)

    def register(
        self, name: str, fn: Callable[..., Any], description: str = ""
    ) -> StepSpec:
        """Register *fn* as step *name*; introspects the parameter table."""
        if name in self.steps:
            raise StepError(f"step {name!r} is already registered")
        spec = StepSpec(
            name=name,
            fn=fn,
            params=_introspect_params(name, fn),
            description=description or (inspect.getdoc(fn) or "").split("\n")[0],
        )
        self.steps[name] = spec
        return spec

    def get(self, name: str) -> StepSpec:
        """The spec for *name*; :class:`StepError` with suggestions if absent."""
        try:
            return self.steps[name]
        except KeyError:
            raise StepError(
                f"unknown step {name!r}; registered: {sorted(self.steps)}"
            ) from None

    def list_steps(self) -> List[str]:
        """Registered step names, sorted."""
        return sorted(self.steps)

    def step(
        self, name: str, description: str = ""
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`register`."""

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.register(name, fn, description)
            return fn

        return decorate


#: The default registry the step library and presets populate.
REGISTRY = StepRegistry()

#: ``@step("name")`` — register into the default registry.
step = REGISTRY.step
