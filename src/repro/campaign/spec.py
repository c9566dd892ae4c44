"""Declarative campaign specs: the paper's whole evaluation as one file.

A :class:`CampaignSpec` names a sweep the way the paper's figures are
organized — apps x cluster presets x node counts x device mixes x scales x
seeds x fault plans — and expands it **deterministically** into canonical
:class:`~repro.serve.spec.JobSpec` points.  Determinism matters twice:
the same campaign file always produces the same spec list (so run tables
are comparable across machines), and every point's identity is its
``content_hash``, so a repeated or extended campaign re-executes only the
points the persistent :class:`~repro.serve.store.ResultStore` has never
seen.

The JSON form::

    {
      "name": "fig5-sweep",
      "axes": {
        "app":    ["heat3d", "kmeans"],
        "preset": ["laptop"],
        "nodes":  [1, 2, 4],
        "mix":    ["cpu", "cpu+2gpu"],
        "scale":  ["quick"],
        "seed":   [0, 1],
        "fault_plan": [null]
      },
      "params":      {...},                  # config overrides, all apps
      "app_params":  {"heat3d": {...}},      # config overrides, one app
      "options":     {...},                  # run() keywords, all apps
      "app_options": {"heat3d": {...}},      # run() keywords, one app
      "backend": "auto", "trace": false,
      "points": [ {full JobSpec document}, ... ]   # explicit extras
    }

Axes multiply (the cartesian product, in the fixed axis order above);
``points`` appends hand-written :class:`JobSpec` documents for anything a
product can't express.  The ``seed`` axis writes each app's ``seed``
config field; ``fault_plan`` entries are
:meth:`~repro.faults.plan.FaultPlan.to_dict` documents or ``null``.
``backend: "auto"`` sends every job to a worker process when this process
may use more than one CPU (wall-clock throughput; a worker runs the same
loop, and the backend never enters a spec's content hash).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.serve.spec import JobSpec, resolve_backend, usable_cpus
from repro.util.errors import ValidationError
from repro.util.validate import check_document, check_json, to_wire, wire_fields

#: Axis names, in expansion (outer to inner) order.
AXES = ("app", "preset", "nodes", "mix", "scale", "seed", "fault_plan")

#: Default value per axis when a campaign omits it: the :class:`JobSpec`
#: field's default, and no seed (each app's own).
_AXIS_DEFAULTS: dict[str, tuple] = {
    "seed": (None,),
    **{f.name: (f.default,) for f in dataclasses.fields(JobSpec) if f.name in AXES[1:]},
}


def _axis_kinds(axis: str) -> tuple[str, ...]:
    """The JSON kinds of an axis value: its :class:`JobSpec` field's, or, for
    ``seed`` (an app config field), an integer or null."""
    return ("an integer", "null") if axis == "seed" else wire_fields(JobSpec)[axis]


def resolve_campaign_backend(backend: str | None) -> str | None:
    """``"auto"`` -> job workers given more than one usable CPU, else in-process."""
    if backend != "auto":
        return backend
    return "processes" if usable_cpus() > 1 else None


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep over the job service's spec space.

    Args:
        name: Campaign name (labels the run table and report).
        axes: Axis name -> value list; see :data:`AXES`.  ``app`` is
            required and non-empty; omitted axes take single-point
            defaults.
        params: Config-field overrides applied to every point.
        app_params: Per-app config overrides (layered over ``params``;
            the place for fields that only exist on one app's config).
        options: App ``run()`` keyword options applied to every point.
        app_options: Per-app option overrides (layered over ``options``).
        backend: ``"auto"`` (job workers given more than one usable CPU),
            an explicit backend name, or ``None`` (in-process).
        trace: Record every job (utilization / critical-path columns in
            the run table at the cost of per-job tracing overhead).
        points: Extra explicit :class:`JobSpec` documents appended after
            the product, for shapes the axes can't express.
    """

    name: str
    axes: Mapping[str, tuple]
    params: Mapping[str, Any] = field(default_factory=dict)
    app_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    app_options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    backend: str | None = "auto"
    trace: bool = False
    points: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"campaign name must be a non-empty string, got {self.name!r}")
        axes = {
            k: tuple(v) if isinstance(v, (list, tuple)) else (v,)
            for k, v in dict(self.axes).items()
        }
        unknown = set(axes) - set(AXES)
        if unknown:
            raise ValidationError(
                f"unknown campaign axes {sorted(unknown)}; known: {list(AXES)}"
            )
        if not axes.get("app"):
            raise ValidationError("campaign needs a non-empty 'app' axis")
        for axis, values in axes.items():
            if len(values) == 0:
                raise ValidationError(f"axis {axis!r} must not be empty")
            if len(set(map(_freeze, values))) != len(values):
                raise ValidationError(f"axis {axis!r} has duplicate values")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "params", dict(self.params or {}))
        object.__setattr__(
            self, "app_params", {k: dict(v) for k, v in dict(self.app_params or {}).items()}
        )
        object.__setattr__(self, "options", dict(self.options or {}))
        object.__setattr__(
            self, "app_options", {k: dict(v) for k, v in dict(self.app_options or {}).items()}
        )
        object.__setattr__(self, "points", tuple(dict(p) for p in self.points))
        if self.backend != "auto":
            resolve_backend(self.backend)  # raises on unknown names
        for scope in (self.app_params, self.app_options):
            stray = set(scope) - set(self.axes["app"])
            if stray:
                raise ValidationError(
                    f"per-app overrides name apps outside the 'app' axis: {sorted(stray)}"
                )

    # -- expansion ---------------------------------------------------------
    def axis(self, name: str) -> tuple:
        return self.axes.get(name, _AXIS_DEFAULTS.get(name, ()))

    def n_points(self) -> int:
        total = 1
        for axis in AXES:
            total *= len(self.axis(axis))
        return total + len(self.points)

    def expand(self) -> list[JobSpec]:
        """The campaign's canonical :class:`JobSpec` list.

        Deterministic: the cartesian product in :data:`AXES` order (outer
        to inner), then explicit ``points`` — same file, same list,
        everywhere.  Every point is validated at construction, so a typo'd
        param fails the whole expansion up front, not mid-sweep.
        """
        backend = resolve_campaign_backend(self.backend)
        specs: list[JobSpec] = []
        for app, preset, nodes, mix, scale, seed, plan in itertools.product(
            *(self.axis(a) for a in AXES)
        ):
            params = dict(self.params)
            params.update(self.app_params.get(app, {}))
            if seed is not None:
                params["seed"] = seed
            options = dict(self.options)
            options.update(self.app_options.get(app, {}))
            try:
                specs.append(
                    JobSpec(
                        app=app,
                        nodes=nodes,
                        mix=mix,
                        preset=preset,
                        scale=scale,
                        params=params,
                        options=options,
                        fault_plan=plan,
                        backend=backend,
                        trace=self.trace,
                    )
                )
            except ValidationError as exc:
                raise ValidationError(
                    f"campaign {self.name!r} point "
                    f"(app={app}, preset={preset}, nodes={nodes}, mix={mix}, "
                    f"scale={scale}, seed={seed}) is invalid: {exc}"
                ) from None
        for i, doc in enumerate(self.points):
            try:
                spec = JobSpec.from_dict(doc)
            except ValidationError as exc:
                raise ValidationError(
                    f"campaign {self.name!r} explicit point #{i} is invalid: {exc}"
                ) from None
            if spec.backend is None and backend is not None:
                spec = JobSpec.from_dict({**spec.to_dict(), "backend": backend})
            specs.append(spec)
        return specs

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return to_wire(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """The campaign a JSON document describes; every malformed document
        raises :class:`ValidationError`."""
        check_document("campaign", cls, data)
        for scope in ("app_params", "app_options"):
            for app, overrides in data.get(scope, {}).items():
                check_json(f"campaign {scope}[{app!r}]", overrides, "an object")
        for axis, values in data["axes"].items():
            if axis in AXES:  # an unknown axis fails in __post_init__
                for value in values if isinstance(values, (list, tuple)) else (values,):
                    check_json(f"campaign axis {axis!r} value", value, *_axis_kinds(axis))
        return cls(**data)

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Read a campaign spec from a JSON file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read campaign file {path}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"campaign file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _freeze(value: Any) -> Any:
    """Hashable view of an axis value (fault plans are dicts)."""
    if isinstance(value, Mapping):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
