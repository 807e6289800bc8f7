//! Sweep-shard checkpoints: serialized partial sweep results that
//! `apc-cli merge` recombines into the unsharded artefact, byte for byte.
//!
//! `apc-cli sweep <spec> --shard i/n --out shard_i.json` runs every grid
//! point whose *global grid index* is congruent to `i` modulo `n` and
//! writes one checkpoint: an envelope identifying the sweep (spec name,
//! shard arity, grid size, seed, duration) plus, per completed point, its
//! label, the full [`RunResult`] export and — the piece the plain export
//! lacks — the run's serialized quantile sketch.
//! The sketch is what makes the cross-process round trip *exact*: `merge`
//! re-derives every latency summary from the parsed sketch (never from the
//! printed summary), re-aggregates combined fleet latency by sketch merge,
//! and therefore renders output bit-identical to a single-process run of
//! the same spec. The differential tests pin that identity.
//!
//! Checkpoints are deliberately strict on the way in: wrong version, shard
//! mismatches, points outside the shard's residue class, duplicate or
//! missing grid indices, sketch buckets outside the index domain a `u64`
//! maps to, and summaries inconsistent with their sketch are all hard
//! errors — a corrupted shard must fail loudly at merge, not bend the final
//! artefact, panic or exhaust memory.

use apc_analysis::export::{
    run_result_from_json, run_result_json, sketch_from_json, sketch_json, JsonValue,
};
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;
use apc_sim::SimDuration;

/// The checkpoint format version this build writes and accepts.
const CHECKPOINT_VERSION: u64 = 2;

/// One completed grid point of a sharded sweep.
pub struct CheckpointPoint {
    /// The point's global grid index (platform-major, see
    /// [`crate::runner::sweep_grid`]).
    pub index: usize,
    /// The point's display label (`<platform>@<rate>`).
    pub label: String,
    /// The completed run.
    pub run: RunResult,
}

/// One shard's worth of sweep results plus the envelope identifying the
/// sweep it came from.
pub struct Checkpoint {
    /// The sweep spec's experiment name.
    pub spec_name: String,
    /// This shard's id, `0 <= shard < of`.
    pub shard: usize,
    /// The shard arity the sweep was split into.
    pub of: usize,
    /// The full grid's point count (all shards together).
    pub total_points: usize,
    /// The sweep's root seed (every grid point reuses it).
    pub seed: u64,
    /// The simulated duration of each grid point.
    pub duration: SimDuration,
    /// The shard's completed points, in global grid order.
    pub points: Vec<CheckpointPoint>,
}

impl Checkpoint {
    /// Serialises the checkpoint (pretty-print the result to write it).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut o = JsonValue::object();
                o.push("index", JsonValue::Int(p.index as i128))
                    .push("label", JsonValue::Str(p.label.clone()))
                    .push("sketch", sketch_json(&p.run.latency_sketch))
                    .push("run", run_result_json(&p.run));
                o
            })
            .collect();
        let mut o = JsonValue::object();
        o.push(
            "apc_sweep_checkpoint",
            JsonValue::Int(i128::from(CHECKPOINT_VERSION)),
        )
        .push("spec_name", JsonValue::Str(self.spec_name.clone()))
        .push("shard", JsonValue::Int(self.shard as i128))
        .push("of", JsonValue::Int(self.of as i128))
        .push("total_points", JsonValue::Int(self.total_points as i128))
        .push("seed", JsonValue::Int(i128::from(self.seed)))
        .push(
            "duration_ns",
            JsonValue::Int(i128::from(self.duration.as_nanos())),
        )
        .push("points", JsonValue::Array(points));
        o
    }

    /// Parses and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or consistency
    /// problem (see the module docs for the strictness stance).
    pub fn from_json(v: &JsonValue) -> Result<Checkpoint, String> {
        fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("checkpoint: missing or non-integer `{key}`"))
        }
        match v.get("apc_sweep_checkpoint").and_then(JsonValue::as_u64) {
            Some(CHECKPOINT_VERSION) => {}
            Some(other) => {
                return Err(format!(
                    "checkpoint: version {other} (this build reads version {CHECKPOINT_VERSION})"
                ))
            }
            None => return Err("not a sweep checkpoint (no `apc_sweep_checkpoint` key)".to_owned()),
        }
        let spec_name = v
            .get("spec_name")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint: missing or non-string `spec_name`")?
            .to_owned();
        let shard = usize_field(v, "shard")?;
        let of = usize_field(v, "of")?;
        let total_points = usize_field(v, "total_points")?;
        if of == 0 || shard >= of {
            return Err(format!("checkpoint: shard {shard}/{of} is out of range"));
        }
        let seed = v
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("checkpoint: missing or non-integer `seed`")?;
        let duration = SimDuration::from_nanos(
            v.get("duration_ns")
                .and_then(JsonValue::as_u64)
                .ok_or("checkpoint: missing or non-integer `duration_ns`")?,
        );
        let mut points = Vec::new();
        for p in v
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("checkpoint: missing or non-array `points`")?
        {
            let index = usize_field(p, "index").map_err(|e| e.replace("checkpoint:", "point:"))?;
            if index >= total_points {
                return Err(format!(
                    "point {index}: index out of range (grid has {total_points} points)"
                ));
            }
            if index % of != shard {
                return Err(format!(
                    "point {index}: does not belong to shard {shard}/{of}"
                ));
            }
            let label = p
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("point {index}: missing or non-string `label`"))?
                .to_owned();
            let sketch = p
                .get("sketch")
                .ok_or_else(|| format!("point {index}: missing `sketch`"))?;
            let sketch = sketch_from_json(sketch).map_err(|e| format!("point {index}: {e}"))?;
            let run = p
                .get("run")
                .map(|run| run_result_from_json(run, sketch))
                .transpose()
                .map_err(|e| format!("point {index}: {e}"))?
                .ok_or_else(|| format!("point {index}: missing `run`"))?;
            points.push(CheckpointPoint { index, label, run });
        }
        Ok(Checkpoint {
            spec_name,
            shard,
            of,
            total_points,
            seed,
            duration,
            points,
        })
    }
}

/// Recombines one checkpoint per shard into the unsharded sweep outcome:
/// the experiment name, the grid labels and the reconstructed fleet, in
/// global grid order — exactly what rendering an unsharded `sweep` run
/// would have produced.
///
/// # Errors
///
/// Returns a description of the first inconsistency: mismatched envelopes,
/// a missing or repeated shard, a grid larger than the given points can
/// fill, missing or duplicate grid points, and per-point counts whose
/// fleet totals overflow.
pub fn merge_checkpoints(
    shards: Vec<Checkpoint>,
) -> Result<(String, Vec<String>, FleetResult), String> {
    let Some(first) = shards.first() else {
        return Err("no checkpoints to merge".to_owned());
    };
    let spec_name = first.spec_name.clone();
    let (of, total_points, seed, duration) =
        (first.of, first.total_points, first.seed, first.duration);
    if shards.len() != of {
        return Err(format!(
            "the sweep was split {of} ways but {} checkpoint(s) were given",
            shards.len()
        ));
    }
    let mut seen_shards = vec![false; of];
    for ck in &shards {
        if ck.spec_name != spec_name {
            return Err(format!(
                "checkpoint spec `{}` does not match `{spec_name}`",
                ck.spec_name
            ));
        }
        if ck.of != of || ck.total_points != total_points {
            return Err(format!(
                "checkpoint shard {}/{} over {} points does not match {of} shards over {total_points} points",
                ck.shard, ck.of, ck.total_points
            ));
        }
        if ck.seed != seed || ck.duration != duration {
            return Err(format!(
                "checkpoint shard {} ran under a different seed or duration than the first checkpoint",
                ck.shard
            ));
        }
        if seen_shards[ck.shard] {
            return Err(format!("shard {} given more than once", ck.shard));
        }
        seen_shards[ck.shard] = true;
    }
    // Checked before the grid is allocated: `total_points` is read from
    // the file, and only points the checkpoints hold can fill it.
    let given: usize = shards.iter().map(|ck| ck.points.len()).sum();
    if given < total_points {
        return Err(format!(
            "the checkpoints hold {given} of the sweep's {total_points} grid points"
        ));
    }
    let mut slots: Vec<Option<CheckpointPoint>> = Vec::new();
    slots.resize_with(total_points, || None);
    for ck in shards {
        for point in ck.points {
            let slot = &mut slots[point.index];
            if slot.is_some() {
                return Err(format!("grid point {} given more than once", point.index));
            }
            *slot = Some(point);
        }
    }
    let mut labels = Vec::with_capacity(total_points);
    let mut runs = Vec::with_capacity(total_points);
    for (index, slot) in slots.into_iter().enumerate() {
        let point = slot.ok_or_else(|| format!("grid point {index} is missing"))?;
        labels.push(point.label);
        runs.push(point.run);
    }
    // The fleet aggregates add these up over the points.
    let totals = runs
        .iter()
        .try_fold((0_u64, 0_u64, 0_u64, 0_u128), |(c, e, n, s), r| {
            Some((
                c.checked_add(r.completed_requests)?,
                e.checked_add(r.events_dispatched)?,
                n.checked_add(r.latency_sketch.count())?,
                s.checked_add(r.latency_sketch.sum())?,
            ))
        });
    if totals.is_none() {
        return Err("the points' request, event or latency totals overflow".to_owned());
    }
    Ok((spec_name, labels, FleetResult { runs }))
}
