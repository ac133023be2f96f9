from .parse import make_parse_fn, PARSED_SCHEMA  # noqa: F401
from .enrich import EnrichStage  # noqa: F401
from .route import make_route_fn  # noqa: F401
