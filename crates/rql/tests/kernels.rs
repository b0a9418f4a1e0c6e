//! The `ResultSet` merge kernels pinned to a naive reference.
//!
//! The kernels deduplicate through an in-place row index (rows compared
//! where they lie, materialised only when new); the reference below is
//! the straightforward `FxHashSet<Row>` of cloned rows. Over small random
//! tables with duplicate rows, mixed node kinds and permuted columns, both
//! must produce the same columns and the same rows in the same order.

use proptest::prelude::*;
use sqpeer_rdfs::{FxHashSet, Literal, Node, Resource};
use sqpeer_rql::{ResultSet, Row};

/// Every ordering of the three column names a table draws from.
const ORDERS: [[&str; 3]; 6] = [
    ["A", "B", "C"],
    ["A", "C", "B"],
    ["B", "A", "C"],
    ["B", "C", "A"],
    ["C", "A", "B"],
    ["C", "B", "A"],
];

/// Cell values from a pool of four, so duplicates are frequent; one is a
/// literal so rows mix node kinds.
fn cell(v: u8) -> Node {
    match v {
        3 => Node::Literal(Literal::Integer(0)),
        v => Node::Resource(Resource::new(format!("http://r/{v}"))),
    }
}

fn rows_of(cells: Vec<Vec<u8>>, width: usize) -> Vec<Row> {
    cells
        .into_iter()
        .map(|r| r[..width].iter().map(|&v| cell(v)).collect())
        .collect()
}

fn arb_cells() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0..4u8, 3), 0..10)
}

/// A table over 1–3 of the columns, in any order, duplicates allowed.
fn arb_table() -> impl Strategy<Value = ResultSet> {
    (0..6usize, 1..4usize, arb_cells()).prop_map(|(order, width, cells)| ResultSet {
        columns: ORDERS[order][..width]
            .iter()
            .map(|c| c.to_string())
            .collect(),
        rows: rows_of(cells, width),
    })
}

/// Random rows shaped for `table`'s own columns.
fn aligned(table: &ResultSet, cells: Vec<Vec<u8>>) -> ResultSet {
    ResultSet {
        columns: table.columns.clone(),
        rows: rows_of(cells, table.columns.len()),
    }
}

/// A join case: a table over 1–3 of `A`, `B`, `C`, a table sharing
/// exactly 0–3 of those columns plus up to two of its own (`D`, `E`),
/// each side's columns in any order, and a projection drawn from every
/// name (repeats and a missing `Z` included). Narrow projections over a
/// four-value cell pool produce duplicate rows for the join to fold.
fn arb_join_case() -> impl Strategy<Value = (ResultSet, ResultSet, Vec<String>)> {
    let wide_cells = || prop::collection::vec(prop::collection::vec(0..4u8, 5), 0..10);
    (
        (0..6usize, 1..4usize, 0..4usize, 0..3usize, 0..10usize),
        (wide_cells(), wide_cells()),
        prop::collection::vec(0..6usize, 0..5),
    )
        .prop_map(
            |((order, width, shared, fresh, shuffle), (a_cells, b_cells), pick)| {
                let a_cols: Vec<&str> = ORDERS[order][..width].to_vec();
                let shared = shared.min(width);
                let fresh = fresh.max(usize::from(shared == 0));
                let mut b_cols: Vec<&str> = a_cols[..shared].to_vec();
                b_cols.extend(&["D", "E"][..fresh]);
                let turn = shuffle % b_cols.len();
                b_cols.rotate_left(turn);
                if shuffle >= 5 {
                    b_cols.reverse();
                }
                let table = |cols: &[&str], cells| ResultSet {
                    columns: cols.iter().map(|c| c.to_string()).collect(),
                    rows: rows_of(cells, cols.len()),
                };
                let names = pick
                    .into_iter()
                    .map(|k| ["A", "B", "C", "D", "E", "Z"][k].to_string())
                    .collect();
                (table(&a_cols, a_cells), table(&b_cols, b_cells), names)
            },
        )
}

fn perm(acc: &ResultSet, part: &ResultSet) -> Option<Vec<usize>> {
    acc.columns.iter().map(|c| part.column_index(c)).collect()
}

/// Reference union: appends `parts`' rows (permuted into `acc`'s column
/// order) not seen before; returns the appended rows.
fn naive_union_all(acc: &mut ResultSet, parts: &[ResultSet]) -> Vec<Row> {
    let mut seen: FxHashSet<Row> = acc.rows.iter().cloned().collect();
    let mut delta = Vec::new();
    for part in parts {
        let Some(perm) = perm(acc, part) else {
            continue;
        };
        for row in &part.rows {
            let row: Row = perm.iter().map(|&i| row[i].clone()).collect();
            if seen.insert(row.clone()) {
                acc.rows.push(row.clone());
                delta.push(row);
            }
        }
    }
    delta
}

/// Reference natural join: nested loops in `a`-major, `b`-minor order.
fn naive_join(a: &ResultSet, b: &ResultSet) -> ResultSet {
    let shared: Vec<(usize, usize)> = a
        .columns
        .iter()
        .enumerate()
        .filter_map(|(i, c)| b.column_index(c).map(|j| (i, j)))
        .collect();
    let extra: Vec<usize> = (0..b.columns.len())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();
    let mut out = ResultSet::empty(
        a.columns
            .iter()
            .cloned()
            .chain(extra.iter().map(|&j| b.columns[j].clone()))
            .collect(),
    );
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    for ra in &a.rows {
        for rb in &b.rows {
            if shared.iter().all(|&(i, j)| ra[i] == rb[j]) {
                let mut row = ra.clone();
                row.extend(extra.iter().map(|&j| rb[j].clone()));
                if seen.insert(row.clone()) {
                    out.rows.push(row);
                }
            }
        }
    }
    out
}

fn naive_project(rs: &ResultSet, names: &[String]) -> ResultSet {
    let idx: Vec<usize> = names.iter().filter_map(|n| rs.column_index(n)).collect();
    let mut out = ResultSet::empty(idx.iter().map(|&i| rs.columns[i].clone()).collect());
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    for row in &rs.rows {
        let row: Row = idx.iter().map(|&i| row[i].clone()).collect();
        if seen.insert(row.clone()) {
            out.rows.push(row);
        }
    }
    out
}

proptest! {
    #[test]
    fn union_all_matches_reference(
        acc in arb_table(),
        parts in prop::collection::vec(arb_table(), 0..4),
        cells in arb_cells(),
    ) {
        // Mix in a part whose columns line up with the accumulator's.
        let mut parts = parts;
        parts.push(aligned(&acc, cells));
        let mut kernel = acc.clone();
        kernel.union_all(&parts);
        let mut reference = acc;
        naive_union_all(&mut reference, &parts);
        prop_assert_eq!(kernel, reference);
    }

    #[test]
    fn union_variants_match_reference(
        acc in arb_table(),
        other in arb_table(),
        cells in arb_cells(),
    ) {
        let lined_up = aligned(&acc, cells);
        for other in [other, lined_up] {
            let mut reference = acc.clone();
            let delta = naive_union_all(&mut reference, std::slice::from_ref(&other));

            let mut by_ref = acc.clone();
            by_ref.union(&other);
            prop_assert_eq!(&by_ref, &reference);

            let mut by_value = acc.clone();
            by_value.union_owned(other.clone());
            prop_assert_eq!(&by_value, &reference);

            let mut with_delta = acc.clone();
            prop_assert_eq!(with_delta.union_delta(&other), delta);
            prop_assert_eq!(&with_delta, &reference);
        }
    }

    #[test]
    fn join_matches_reference(a in arb_table(), b in arb_table()) {
        prop_assert_eq!(a.join(&b), naive_join(&a, &b));
    }

    #[test]
    fn join_projected_matches_reference((a, b, names) in arb_join_case()) {
        let reference = naive_project(&naive_join(&a, &b), &names);
        prop_assert_eq!(a.join_projected(&b, &names), reference);
        // Keeping every column is the plain join.
        prop_assert_eq!(a.join(&b), naive_join(&a, &b));
    }

    #[test]
    fn project_matches_reference(
        rs in arb_table(),
        order in 0..6usize,
        width in 0..4usize,
        missing in 0..2u8,
    ) {
        let mut names: Vec<String> =
            ORDERS[order][..width].iter().map(|c| c.to_string()).collect();
        if missing == 1 {
            names.push("D".into()); // a name the table lacks is skipped
        }
        let reference = naive_project(&rs, &names);
        prop_assert_eq!(rs.project(&names), reference.clone());
        // By value over distinct rows (its precondition), including the
        // identity projection that keeps the rows as they are.
        let distinct = rs.project(&rs.columns);
        prop_assert_eq!(distinct.clone().into_projected(&names), reference);
        let columns = distinct.columns.clone();
        prop_assert_eq!(distinct.clone().into_projected(&columns), distinct);
    }

    #[test]
    fn extend_distinct_matches_reference(rs in arb_table(), cells in arb_cells()) {
        let extra = rows_of(cells, rs.columns.len());
        let mut kernel = rs.clone();
        kernel.extend_distinct(extra.clone());
        let mut reference = rs;
        let mut seen: FxHashSet<Row> = reference.rows.iter().cloned().collect();
        for row in extra {
            if seen.insert(row.clone()) {
                reference.rows.push(row);
            }
        }
        prop_assert_eq!(kernel, reference);
    }
}
