//! Checks of `mochy-serve` response bodies against in-process references.
//! Every check returns `Err(why)` for a wrong answer; the caller counts it
//! as a failed operation.

use mochy_core::CountConfig;
use mochy_hypergraph::Hypergraph;
use mochy_json::JsonValue;

/// Number of h-motifs.
pub const NUM_MOTIFS: usize = 26;

/// The fields of a `POST /v1/count` body the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CountBody {
    /// Dataset generation the answer was computed on.
    pub generation: u64,
    /// The request seed echoed back.
    pub seed: u64,
    /// Hyperwedges of the projection, when reported.
    pub num_hyperwedges: Option<u64>,
    /// Samples drawn, for estimators.
    pub samples_drawn: Option<u64>,
    /// Sum of the counts.
    pub total: f64,
    /// The 26 motif counts.
    pub counts: Vec<f64>,
}

/// What a correct count answer must contain.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Motif counts, compared bit for bit.
    pub counts: Vec<f64>,
    /// Projection hyperwedges.
    pub num_hyperwedges: u64,
    /// Samples drawn (`None` for exact counting).
    pub samples_drawn: Option<u64>,
}

fn parse_object(body: &str) -> Result<JsonValue, String> {
    let value = mochy_json::parse(body).map_err(|error| format!("body is not JSON: {error}"))?;
    if value.get("error").is_some() {
        return Err(format!("error envelope: {body}"));
    }
    Ok(value)
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    value.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn u64_field(value: &JsonValue, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

fn optional_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match field(value, key)? {
        JsonValue::Null => Ok(None),
        other => other
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not a whole number")),
    }
}

fn number_field(value: &JsonValue, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

/// Parses a count body.
pub fn parse_count(body: &str) -> Result<CountBody, String> {
    let value = parse_object(body)?;
    let counts = field(&value, "counts")?
        .as_array()
        .ok_or("`counts` is not an array")?
        .iter()
        .map(|count| count.as_f64().ok_or("`counts` holds a non-number"))
        .collect::<Result<Vec<f64>, _>>()?;
    if counts.len() != NUM_MOTIFS {
        return Err(format!("{} counts, expected {NUM_MOTIFS}", counts.len()));
    }
    Ok(CountBody {
        generation: u64_field(&value, "generation")?,
        seed: u64_field(&value, "seed")?,
        num_hyperwedges: optional_u64(&value, "num_hyperwedges")?,
        samples_drawn: optional_u64(&value, "samples_drawn")?,
        total: number_field(&value, "total")?,
        counts,
    })
}

/// What a correct MoCHy-A+ answer at one thread contains: the in-process
/// `MotifEngine::count` for the same hypergraph, budget and seed.
pub fn approx_expected(hypergraph: &Hypergraph, samples: usize, seed: u64) -> Expected {
    let report = CountConfig::wedge_sample(samples)
        .threads(1)
        .seed(seed)
        .build()
        .count(hypergraph);
    Expected {
        counts: report.counts.as_slice().to_vec(),
        num_hyperwedges: report.num_hyperwedges.unwrap_or(0) as u64,
        samples_drawn: report.samples_drawn.map(|s| s as u64),
    }
}

/// Checks a count body: the echoed seed, the hyperwedge and sample counts,
/// every motif count bit for bit, and the total as their sum.
pub fn check_count(body: &str, seed: u64, expected: &Expected) -> Result<CountBody, String> {
    let parsed = parse_count(body)?;
    if parsed.seed != seed {
        return Err(format!(
            "seed {} echoed for request seed {seed}",
            parsed.seed
        ));
    }
    if parsed.num_hyperwedges != Some(expected.num_hyperwedges) {
        return Err(format!(
            "num_hyperwedges {:?}, expected {}",
            parsed.num_hyperwedges, expected.num_hyperwedges
        ));
    }
    if parsed.samples_drawn != expected.samples_drawn {
        return Err(format!(
            "samples_drawn {:?}, expected {:?}",
            parsed.samples_drawn, expected.samples_drawn
        ));
    }
    for (motif, (got, want)) in parsed.counts.iter().zip(&expected.counts).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!("motif {} count {got}, expected {want}", motif + 1));
        }
    }
    let sum: f64 = expected.counts.iter().sum();
    if parsed.total.to_bits() != sum.to_bits() {
        return Err(format!("total {}, expected {sum}", parsed.total));
    }
    Ok(parsed)
}

/// Checks that a repeated answer is byte-identical to the first one.
pub fn check_repeat(body: &str, first: &str) -> Result<(), String> {
    if body == first {
        Ok(())
    } else {
        Err(format!(
            "repeated body differs from the first answer ({} vs {} bytes)",
            body.len(),
            first.len()
        ))
    }
}

/// The fields of a `POST /v1/mutate` body the oracle checks.
#[derive(Debug, Clone, PartialEq)]
pub struct MutateBody {
    /// Generation the batch published.
    pub generation: u64,
    /// Ids of the inserted hyperedges.
    pub inserted: Vec<u64>,
    /// Per removal, whether it removed a live hyperedge.
    pub removed: Vec<bool>,
    /// Live hyperedges after the batch.
    pub num_edges: u64,
    /// Exact total instance count after the batch.
    pub total: f64,
}

/// Parses a mutate body.
pub fn parse_mutate(body: &str) -> Result<MutateBody, String> {
    let value = parse_object(body)?;
    let inserted = field(&value, "inserted")?
        .as_array()
        .ok_or("`inserted` is not an array")?
        .iter()
        .map(|id| id.as_u64().ok_or("`inserted` holds a non-id"))
        .collect::<Result<Vec<u64>, _>>()?;
    let removed = field(&value, "removed")?
        .as_array()
        .ok_or("`removed` is not an array")?
        .iter()
        .map(|flag| flag.as_bool().ok_or("`removed` holds a non-boolean"))
        .collect::<Result<Vec<bool>, _>>()?;
    Ok(MutateBody {
        generation: u64_field(&value, "generation")?,
        inserted,
        removed,
        num_edges: u64_field(&value, "num_edges")?,
        total: number_field(&value, "total")?,
    })
}

/// Checks the answer to a mutate that removed the hyperedge the previous
/// mutate inserted: the removal took effect and the dataset's exact total is
/// back to its value before the pair.
pub fn check_restored(
    body: &str,
    num_edges: u64,
    bootstrap_total: f64,
) -> Result<MutateBody, String> {
    let parsed = parse_mutate(body)?;
    if parsed.removed != [true] || !parsed.inserted.is_empty() {
        return Err(format!(
            "remove answered inserted {:?} removed {:?}",
            parsed.inserted, parsed.removed
        ));
    }
    if parsed.num_edges != num_edges {
        return Err(format!(
            "{} edges after the pair, expected {num_edges}",
            parsed.num_edges
        ));
    }
    if parsed.total.to_bits() != bootstrap_total.to_bits() {
        return Err(format!(
            "total {} after a net-zero pair, expected {bootstrap_total}",
            parsed.total
        ));
    }
    Ok(parsed)
}

/// Relative error Σ|M̂−M| / ΣM of an estimate against exact counts.
pub fn rel_err(estimate: &[f64], exact: &[f64]) -> f64 {
    let error: f64 = estimate.iter().zip(exact).map(|(e, m)| (e - m).abs()).sum();
    error / exact.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> Vec<f64> {
        (0..NUM_MOTIFS).map(|m| (m * 7) as f64).collect()
    }

    fn body(counts: &[f64], seed: u64) -> String {
        let rendered: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
        let total: f64 = counts.iter().sum();
        format!(
            "{{\"generation\":0,\"method\":\"mochy-e\",\"seed\":{seed},\"shards\":1,\
             \"num_nodes\":9,\"num_edges\":5,\"num_hyperwedges\":12,\"samples_drawn\":null,\
             \"total\":{total},\"counts\":[{}],\"generalized\":null}}",
            rendered.join(",")
        )
    }

    fn expected() -> Expected {
        Expected {
            counts: counts(),
            num_hyperwedges: 12,
            samples_drawn: None,
        }
    }

    #[test]
    fn a_correct_body_passes() {
        let parsed = check_count(&body(&counts(), 5), 5, &expected()).unwrap();
        assert_eq!(parsed.counts, counts());
    }

    #[test]
    fn a_count_off_by_one_is_flagged() {
        let mut wrong = counts();
        wrong[3] += 1.0;
        let error = check_count(&body(&wrong, 5), 5, &expected()).unwrap_err();
        assert!(error.contains("motif 4"), "{error}");
    }

    #[test]
    fn a_corrupted_body_is_flagged() {
        let good = body(&counts(), 5);
        let truncated = &good[..good.len() - 3];
        assert!(check_count(truncated, 5, &expected()).is_err());
        let flipped = good.replacen("\"counts\"", "\"c0unts\"", 1);
        assert!(check_count(&flipped, 5, &expected()).is_err());
        let short = good.replacen("[0,", "[", 1);
        assert!(check_count(&short, 5, &expected()).is_err());
        let envelope = "{\"error\":{\"code\":500,\"kind\":\"internal\",\"message\":\"x\"}}";
        assert!(check_count(envelope, 5, &expected()).is_err());
    }

    #[test]
    fn wrong_metadata_is_flagged() {
        let good = body(&counts(), 5);
        assert!(check_count(&good, 6, &expected()).is_err());
        let wedges = good.replace("\"num_hyperwedges\":12", "\"num_hyperwedges\":13");
        assert!(check_count(&wedges, 5, &expected()).is_err());
        let total = good.replace("\"total\":", "\"total\":1");
        assert!(check_count(&total, 5, &expected()).is_err());
    }

    #[test]
    fn a_repeat_must_be_byte_identical() {
        let first = body(&counts(), 5);
        assert!(check_repeat(&first, &first).is_ok());
        let mut corrupted = first.clone().into_bytes();
        corrupted[10] ^= 1;
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(check_repeat(&corrupted, &first).is_err());
    }

    #[test]
    fn a_restored_total_is_checked() {
        let restore = "{\"dataset\":\"w0\",\"generation\":4,\"inserted\":[],\"removed\":[true],\
                       \"num_edges\":100,\"total\":5000}";
        assert!(check_restored(restore, 100, 5000.0).is_ok());
        assert!(check_restored(restore, 100, 5001.0).is_err());
        assert!(check_restored(restore, 101, 5000.0).is_err());
        let noop = restore.replace("[true]", "[false]");
        assert!(check_restored(&noop, 100, 5000.0).is_err());
    }

    #[test]
    fn relative_error() {
        assert_eq!(rel_err(&[1.0, 3.0], &[2.0, 2.0]), 0.5);
        assert_eq!(rel_err(&[2.0, 2.0], &[2.0, 2.0]), 0.0);
    }
}
