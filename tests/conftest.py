import warnings

import pytest

# Hypothesis imports this module to report a failing @given test. Importing
# it raises mypy_extensions' TypedDict DeprecationWarning, which under
# filterwarnings = ["error"] turns every such failure into an INTERNALERROR
# that ends the session. Import it once here, with that warning ignored.
# The module needs libcst (hypothesis[codemods]); without it the plugin skips
# this report, so there is nothing to import.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=".*TypedDict is deprecated", category=DeprecationWarning
        )
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

from pentestflow.gateway import (
    ChatSession,
    ProviderProfile,
    ScriptedBackend,
)

# a window big enough that eviction never interferes with functional tests
WIDE_PROFILE = ProviderProfile(
    provider_id="test-wide",
    model_name="test-model",
    context_window=1_000_000,
    input_price=0.50,
    output_price=1.50,
)

GPT35_PROFILE = ProviderProfile(
    provider_id="gpt-3.5-turbo",
    model_name="gpt-3.5-turbo",
    context_window=16385,
    input_price=0.50,
    output_price=1.50,
)

GPT4O_PROFILE = ProviderProfile(
    provider_id="gpt-4o",
    model_name="gpt-4o",
    context_window=128000,
    input_price=5.00,
    output_price=15.00,
)


def scripted_session(
    responses,
    system_message: str = "system",
    profile: ProviderProfile = WIDE_PROFILE,
    session_id: str = "test",
) -> ChatSession:
    return ChatSession(
        session_id=session_id,
        system_message=system_message,
        profile=profile,
        backend=ScriptedBackend(responses=list(responses)),
    )


@pytest.fixture
def wide_profile() -> ProviderProfile:
    return WIDE_PROFILE
