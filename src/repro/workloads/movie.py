"""The movie-review workflow (Figure 11a), adapted from DeathStarBench.

A ComposeReview request fans out over several stateful functions — the
composition pattern Beldi's movie workload models: generate a unique review
id, resolve the movie and the user, update the movie's rating, store the
review, then register it with both the movie's and the user's review lists. Every step is an externally
visible effect, so each is logged (in BokiFlow/Beldi) for exactly-once.

The workload is runtime-agnostic: register it on a BokiFlowRuntime,
BeldiRuntime, or UnsafeRuntime.
"""

from __future__ import annotations

from typing import Any, Dict

TABLE_REVIEWS = "review-storage"
TABLE_MOVIE_REVIEWS = "movie-reviews"
TABLE_USER_REVIEWS = "user-reviews"
TABLE_MOVIE_INFO = "movie-info"


def compose_review_request(rng, request_index: int) -> Dict[str, Any]:
    """A request drawn from a small user/movie population."""
    return {
        "user": f"user-{rng.randrange(100)}",
        "movie": f"movie-{rng.randrange(50)}",
        "text": f"review text {request_index}",
        "rating": rng.randrange(1, 11),
    }


def register_full_movie_workflows(runtime, prefix: str = "moviefull") -> str:
    """The fuller DeathStarBench media-service graph (what Beldi's movie
    workload actually models): the frontend fans out to UniqueId, MovieId,
    Text, Rating, and UserId services, then ComposeReview persists the
    review and registers it with the movie's and user's lists. Eight
    functions, all composed with exactly-once invokes."""

    def unique_id(env, arg):
        if False:
            yield
        return f"review-{env.workflow_id}"

    def movie_id(env, arg):
        """Resolve the movie title to its id (registering it on first
        sight — a logged, exactly-once effect)."""
        existing = yield from env.read(TABLE_MOVIE_INFO, arg["movie"])
        if existing is not None:
            return existing["id"]
        movie_id_value = f"m-{arg['movie']}"
        yield from env.write(
            TABLE_MOVIE_INFO, arg["movie"], {"id": movie_id_value, "title": arg["movie"]}
        )
        return movie_id_value

    def text_service(env, arg):
        if False:
            yield
        return arg["text"].strip()

    def rating_service(env, arg):
        """Update the movie's running rating (read-modify-write, logged)."""
        current = (yield from env.read(TABLE_MOVIE_INFO, f"rating:{arg['movie']}")) or {}
        count, total = current.get("count", 0), current.get("total", 0)
        yield from env.write(
            TABLE_MOVIE_INFO,
            f"rating:{arg['movie']}",
            {"count": count + 1, "total": total + arg["rating"]},
        )
        return (total + arg["rating"]) / (count + 1)

    def user_id(env, arg):
        if False:
            yield
        return f"u-{arg['user']}"

    def store_review(env, arg):
        yield from env.write(TABLE_REVIEWS, arg["review_id"], arg["review"])
        return arg["review_id"]

    def register_lists(env, arg):
        movie_list = (yield from env.read(TABLE_MOVIE_REVIEWS, arg["movie"])) or []
        yield from env.write(TABLE_MOVIE_REVIEWS, arg["movie"], movie_list + [arg["review_id"]])
        user_list = (yield from env.read(TABLE_USER_REVIEWS, arg["user"])) or []
        yield from env.write(TABLE_USER_REVIEWS, arg["user"], user_list + [arg["review_id"]])
        return len(movie_list) + 1

    def frontend(env, arg):
        review_id = yield from env.invoke(f"{prefix}-unique-id", arg)
        resolved_movie = yield from env.invoke(f"{prefix}-movie-id", arg)
        text = yield from env.invoke(f"{prefix}-text", arg)
        avg_rating = yield from env.invoke(f"{prefix}-rating", arg)
        user = yield from env.invoke(f"{prefix}-user-id", arg)
        review = {
            "movie": resolved_movie,
            "user": user,
            "text": text,
            "rating": arg["rating"],
        }
        yield from env.invoke(
            f"{prefix}-store-review", {"review_id": review_id, "review": review}
        )
        yield from env.invoke(
            f"{prefix}-register-lists",
            {"review_id": review_id, "movie": arg["movie"], "user": arg["user"]},
        )
        return {"review_id": review_id, "avg_rating": avg_rating}

    runtime.register_workflow(f"{prefix}-unique-id", unique_id)
    runtime.register_workflow(f"{prefix}-movie-id", movie_id)
    runtime.register_workflow(f"{prefix}-text", text_service)
    runtime.register_workflow(f"{prefix}-rating", rating_service)
    runtime.register_workflow(f"{prefix}-user-id", user_id)
    runtime.register_workflow(f"{prefix}-store-review", store_review)
    runtime.register_workflow(f"{prefix}-register-lists", register_lists)
    runtime.register_workflow(f"{prefix}-frontend", frontend)
    return f"{prefix}-frontend"
