"""The naive trial cache key: the whole canonical string, hashed at once.

``repro.core.cache.trial_cache_key`` hashes the same bytes piecewise -
the SHA-256 state of everything up to the seed, memoised per ``(config,
env, network)`` and resumed per trial.  This is the form that lived in
``src/`` before that, kept as the oracle
(``tests/test_record_encoding.py``); ``tests/test_cache_keys.py`` holds
the older one still, a single ``json.dumps`` of the six fields.
"""

import hashlib
import json

from repro.browser.environment import ClientEnvironment
from repro.core.cache import CACHE_SCHEMA_VERSION, config_canonical_json


def naive_trial_cache_key(spec, env=None):
    tail = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "seed": spec.seed,
            "service_ids": list(spec.service_ids),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    canonical = (
        '{"config":'
        + config_canonical_json(spec.config)
        + ',"env":'
        + config_canonical_json(env or ClientEnvironment.faithful_testbed())
        + ',"network":'
        + config_canonical_json(spec.network)
        + ","
        + tail[1:]
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
