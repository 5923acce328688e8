"""gpindex: a deterministic Game Performance Index engine.

Converts recorded mobile-gameplay session telemetry into bounded,
persona-weighted 0-100 performance scores and ranked device-comparison
reports. The pipeline, with the module that defines each step:

    session file -> SessionTelemetry (telemetry, through jsondoc)
    -> MetricSet (metrics) -> sub-index scores (scoring), once per session
    -> six main indices -> overall score, per profile (indices)
    -> median across sessions -> ranked comparison table (report)

Names are imported from the module that defines them, e.g.
``from gpindex.indices import measure, weigh``; importing the package
itself loads nothing else.

Everything is pure and seeded: identical inputs produce bit-identical
scores and reports on every platform.
"""

__version__ = "0.1.0"
