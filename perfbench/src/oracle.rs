//! Answers computed apart from the program: the paper's §3 formulas over a
//! plain dense copy of the matrix, prediction from recomputed bases, a
//! naive event replay, and a parser for the predict response body. None of
//! this calls the residue, prediction or replay code under test.

use dc_datagen::stream::{RatingEvent, RatingOp};
use dc_matrix::DataMatrix;

/// Relative tolerance between the program's figures and the oracle's: the
/// two sum the same terms in different orders.
pub const REL_TOL: f64 = 1e-9;

/// A row-major copy of a matrix's cells (`None` = missing).
#[derive(Clone, PartialEq)]
pub struct Cells {
    pub rows: usize,
    pub cols: usize,
    pub v: Vec<Option<f64>>,
}

impl Cells {
    pub fn of(m: &DataMatrix) -> Cells {
        let (rows, cols) = (m.rows(), m.cols());
        let mut v = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                v.push(m.get(r, c));
            }
        }
        Cells { rows, cols, v }
    }

    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        self.v[r * self.cols + c]
    }
}

/// A cluster as plain index lists.
#[derive(Clone, Debug, PartialEq)]
pub struct Sub {
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
}

impl Sub {
    pub fn of(c: &dc_floc::DeltaCluster) -> Sub {
        Sub {
            rows: c.rows.iter().collect(),
            cols: c.cols.iter().collect(),
        }
    }
}

/// Bases of Definition 3.3 over specified entries: `d_iJ` per row of the
/// sub-matrix, `d_Ij` per column, `d_IJ`, and the volume. A row or column
/// without a specified entry takes `d_IJ`, which makes its (absent)
/// residue terms vanish.
pub struct Bases {
    pub row: Vec<f64>,
    pub col: Vec<f64>,
    pub all: f64,
    pub volume: usize,
}

pub fn bases(cells: &Cells, sub: &Sub) -> Bases {
    let (mut rs, mut rn) = (vec![0.0; sub.rows.len()], vec![0usize; sub.rows.len()]);
    let (mut cs, mut cn) = (vec![0.0; sub.cols.len()], vec![0usize; sub.cols.len()]);
    let (mut total, mut volume) = (0.0, 0usize);
    for (i, &r) in sub.rows.iter().enumerate() {
        for (j, &c) in sub.cols.iter().enumerate() {
            if let Some(v) = cells.get(r, c) {
                rs[i] += v;
                rn[i] += 1;
                cs[j] += v;
                cn[j] += 1;
                total += v;
                volume += 1;
            }
        }
    }
    let all = if volume == 0 {
        0.0
    } else {
        total / volume as f64
    };
    let avg = |s: &[f64], n: &[usize]| -> Vec<f64> {
        s.iter()
            .zip(n)
            .map(|(&s, &n)| if n == 0 { all } else { s / n as f64 })
            .collect()
    };
    Bases {
        row: avg(&rs, &rn),
        col: avg(&cs, &cn),
        all,
        volume,
    }
}

/// Definition 3.5 with the arithmetic mean: the average of
/// `|d_ij − d_iJ − d_Ij + d_IJ|` over the specified entries (0 when there
/// are none).
pub fn residue(cells: &Cells, sub: &Sub) -> f64 {
    let b = bases(cells, sub);
    if b.volume == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (i, &r) in sub.rows.iter().enumerate() {
        for (j, &c) in sub.cols.iter().enumerate() {
            if let Some(v) = cells.get(r, c) {
                sum += (v - b.row[i] - b.col[j] + b.all).abs();
            }
        }
    }
    sum / b.volume as f64
}

/// Definition 3.1: every row and column of the cluster has at least
/// `alpha` of its entries inside the cluster specified.
pub fn meets_occupancy(cells: &Cells, sub: &Sub, alpha: f64) -> bool {
    let eps = 1e-12;
    let rows_ok = sub.rows.iter().all(|&r| {
        let n = sub
            .cols
            .iter()
            .filter(|&&c| cells.get(r, c).is_some())
            .count();
        n as f64 >= (alpha - eps) * sub.cols.len() as f64
    });
    let cols_ok = sub.cols.iter().all(|&c| {
        let n = sub
            .rows
            .iter()
            .filter(|&&r| cells.get(r, c).is_some())
            .count();
        n as f64 >= (alpha - eps) * sub.rows.len() as f64
    });
    rows_ok && cols_ok
}

/// What serving must answer for one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// The mean of `d_iJ + d_Ij − d_IJ` over the covering clusters.
    Value(f64),
    /// No cluster with specified entries covers the cell.
    NotCovered,
}

/// A model's clusters with their recomputed bases, for predictions.
pub struct Predictor {
    subs: Vec<Sub>,
    bases: Vec<Bases>,
}

impl Predictor {
    pub fn new(cells: &Cells, subs: Vec<Sub>) -> Predictor {
        let bases = subs.iter().map(|s| bases(cells, s)).collect();
        Predictor { subs, bases }
    }

    pub fn expect(&self, r: usize, c: usize) -> Expected {
        let (mut sum, mut n) = (0.0, 0usize);
        for (s, b) in self.subs.iter().zip(&self.bases) {
            if b.volume == 0 {
                continue;
            }
            let (Ok(i), Ok(j)) = (s.rows.binary_search(&r), s.cols.binary_search(&c)) else {
                continue;
            };
            sum += b.row[i] + b.col[j] - b.all;
            n += 1;
        }
        if n == 0 {
            Expected::NotCovered
        } else {
            Expected::Value(sum / n as f64)
        }
    }

    /// Clusters covering `(r, c)`.
    pub fn cover_count(&self, r: usize, c: usize) -> usize {
        self.subs
            .iter()
            .filter(|s| s.rows.binary_search(&r).is_ok() && s.cols.binary_search(&c).is_ok())
            .count()
    }
}

/// One answer parsed out of a predict response body.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub row: usize,
    pub col: usize,
    pub outcome: String,
    pub prediction: Option<f64>,
}

/// Parses `{"results": [{"row": r, "col": c, "outcome": "...",
/// "prediction": v|null}, ...]}`. Returns `None` on any deviation.
pub fn parse_results(body: &str) -> Option<Vec<Answer>> {
    let mut rest = body
        .trim()
        .strip_prefix("{\"results\": [")?
        .strip_suffix("]}")?;
    let mut out = Vec::new();
    while !rest.is_empty() {
        rest = rest.strip_prefix(", ").unwrap_or(rest);
        let end = rest.find('}')?;
        let (obj, tail) = (&rest[..end], &rest[end + 1..]);
        rest = tail;
        let field = |key: &str| -> Option<&str> {
            let at = obj.find(&format!("\"{key}\": "))? + key.len() + 4;
            let v = &obj[at..];
            Some(v[..v.find(", ").unwrap_or(v.len())].trim())
        };
        let prediction = match field("prediction")? {
            "null" => None,
            v => Some(v.parse().ok()?),
        };
        out.push(Answer {
            row: field("row")?.parse().ok()?,
            col: field("col")?.parse().ok()?,
            outcome: field("outcome")?.trim_matches('"').to_string(),
            prediction,
        });
    }
    Some(out)
}

/// Checks parsed answers against the oracle for the queried cells.
/// Returns a description of the first disagreement.
pub fn check_answers(
    pred: &Predictor,
    queries: &[(usize, usize)],
    answers: &[Answer],
) -> Result<(), String> {
    if answers.len() != queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            answers.len(),
            queries.len()
        ));
    }
    for (&(r, c), a) in queries.iter().zip(answers) {
        if (a.row, a.col) != (r, c) {
            return Err(format!(
                "answer for ({},{}) where ({r},{c}) was asked",
                a.row, a.col
            ));
        }
        match (pred.expect(r, c), a.outcome.as_str(), a.prediction) {
            (Expected::Value(want), "hit", Some(got))
                if crate::common::close(got, want, REL_TOL) => {}
            (Expected::NotCovered, "miss", None) => {}
            (want, outcome, got) => {
                return Err(format!(
                    "({r},{c}): expected {want:?}, got {outcome} {got:?}"
                ))
            }
        }
    }
    Ok(())
}

/// The matrix after applying `events` in order to an empty
/// `rows × cols` matrix: a set writes the cell, a delete clears it.
pub fn replay(rows: usize, cols: usize, events: &[RatingEvent]) -> Cells {
    let mut cells = Cells {
        rows,
        cols,
        v: vec![None; rows * cols],
    };
    for e in events {
        let at = e.user as usize * cols + e.movie as usize;
        cells.v[at] = match e.op {
            RatingOp::Set(v) => Some(v),
            RatingOp::Delete => None,
        };
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(rows: usize, cols: usize, f: impl Fn(usize, usize) -> Option<f64>) -> Cells {
        let mut v = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                v.push(f(r, c));
            }
        }
        Cells { rows, cols, v }
    }

    #[test]
    fn residue_matches_hand_computation() {
        // 2x2 [[1, 2], [3, 8]]: bases rows 1.5, 5.5; cols 2, 5; all 3.5.
        // Residues: 1-1.5-2+3.5 = 1, 2-1.5-5+3.5 = -1, 3-5.5-2+3.5 = -1,
        // 8-5.5-5+3.5 = 1 -> mean |r| = 1.
        let m = cells(2, 2, |r, c| Some([[1.0, 2.0], [3.0, 8.0]][r][c]));
        let sub = Sub {
            rows: vec![0, 1],
            cols: vec![0, 1],
        };
        assert!((residue(&m, &sub) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifting_cluster_has_zero_residue_and_predicts_its_cells() {
        let m = cells(4, 3, |r, c| Some(r as f64 * 10.0 + c as f64));
        let sub = Sub {
            rows: vec![0, 1, 2, 3],
            cols: vec![0, 1, 2],
        };
        assert!(residue(&m, &sub).abs() < 1e-12);
        let p = Predictor::new(&m, vec![sub]);
        assert_eq!(p.expect(2, 1), Expected::Value(21.0));
    }

    #[test]
    fn parses_the_predict_body() {
        let body =
            "{\"results\": [{\"row\": 3, \"col\": 4, \"outcome\": \"hit\", \"prediction\": 1.5}, \
                    {\"row\": 0, \"col\": 1, \"outcome\": \"miss\", \"prediction\": null}]}\n";
        let a = parse_results(body).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].prediction, Some(1.5));
        assert_eq!(a[1].outcome, "miss");
    }
}
