"""The campaign layer: one typed config, one builder, one event spine.

This package is the single wiring layer above the raw class API
(``AgE(...)``, ``AgEBO(...)``, the evaluator constructors — all of which
keep working unchanged):

- :mod:`repro.campaign.config` — the typed config tree
  (:class:`CampaignConfig` composing search / training / evaluator /
  fault / checkpoint configs) with validation and lossless
  ``to_dict``/``from_dict``;
- :mod:`repro.campaign.builder` — :func:`build_campaign` /
  :func:`resume_campaign`, constructing the evaluator backend, the search
  (AgE or an AgEBO variant) and every other component directly from the
  config, and handing one :class:`EventBus` to the manager-side layers;
- :mod:`repro.campaign.events` — the typed lifecycle events, the bus and
  the built-in subscribers (JSONL log, progress reporter, metrics
  aggregator).

Quickstart::

    from repro.campaign import CampaignConfig, SearchConfig, build_campaign

    config = CampaignConfig(dataset="covertype",
                            search=SearchConfig(method="AgEBO", seed=42))
    campaign = build_campaign(config)
    history = campaign.run()
"""

from repro.campaign.config import (
    CONFIG_VERSION,
    CampaignConfig,
    CheckpointConfig,
    EvaluatorConfig,
    FaultConfig,
    SearchConfig,
    TrainingConfig,
)
from repro.campaign.events import (
    EVENT_TYPES,
    BOTellAsk,
    CacheHit,
    CacheStore,
    CampaignEvent,
    CampaignFinished,
    CampaignStarted,
    CheckpointWritten,
    EpochEnd,
    EventBus,
    FaultInjected,
    JobGathered,
    JobRetried,
    JobSubmitted,
    JsonlEventLog,
    MetricsAggregator,
    PopulationUpdated,
    ProgressReporter,
    load_events,
    replay_metrics,
)
from repro.campaign.builder import Campaign, build_campaign, resume_campaign

__all__ = [
    # config
    "CONFIG_VERSION",
    "CampaignConfig",
    "SearchConfig",
    "TrainingConfig",
    "EvaluatorConfig",
    "FaultConfig",
    "CheckpointConfig",
    # builder
    "Campaign",
    "build_campaign",
    "resume_campaign",
    # events
    "CampaignEvent",
    "CampaignStarted",
    "CampaignFinished",
    "JobSubmitted",
    "JobGathered",
    "JobRetried",
    "CacheHit",
    "CacheStore",
    "PopulationUpdated",
    "BOTellAsk",
    "EpochEnd",
    "FaultInjected",
    "CheckpointWritten",
    "EVENT_TYPES",
    "EventBus",
    "JsonlEventLog",
    "ProgressReporter",
    "MetricsAggregator",
    "load_events",
    "replay_metrics",
]
