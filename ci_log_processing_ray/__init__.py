"""Ray-Data-native rebuild of the openstack/ci-log-processing pipeline.

A brand-new engine (not a port) expressing the reference's
parse -> enrich -> route -> aggregate log pipeline as ``ray.data.Dataset``
transforms over zero-copy Arrow batches of pre-tokenized sequences
``(doc_id: string, tokens: list<int32>, n_tok: int32, source: string)``.

Layout
------
- ``functions/``  vectorized scalar kernels (detokenize, timestamp grok,
  message split, severity extract, perf-JSON flatten, subunit normalize)
- ``stages/``     per-block Arrow functions (parse, enrich with
  per-worker state, route, grok) and quarantine
- ``sources/``    corpus readers + the deterministic synthetic generator
- ``pipelines/``  end-to-end pipeline assembly (flagship batch, live,
  follow) sharing one block function and one write-and-commit tail,
  plus compaction and export
- ``state/``      per-partition lineage manifests (checkpoint/resume)
- ``ops/``        large-scale training-data operators (dedup, similarity
  search, text analysis, multimodal plumbing)

Reference semantics are cited per function as ``logsender.py:<lines>`` /
``logscraper.py:<lines>`` into /root/reference/logscraper/.
"""

__version__ = "0.1.0"
