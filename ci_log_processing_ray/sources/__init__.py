from .synth import generate_corpus, CorpusSpec  # noqa: F401
from .readers import load_build_meta  # noqa: F401
