//! The one campaign harness: the paper's §5 procedure — fix a workload
//! seed, reach steady state, measure a window, tabulate — written once.
//!
//! A [`Campaign`] names a grid of cells, how many seeded trials each cell
//! aggregates, what one trial measures and how trials fold into a cell,
//! plus one declarative [`Column`] list that drives *both* the text table
//! (`results/<name>.txt`) and the JSON record (`BENCH_<name>.json`).
//! [`fan_out`] is the only `(cell, trial)` fan-out, [`render_table`] /
//! [`render_json`] the only emitter, and [`jobs_identity`] the only
//! "`--jobs 1` vs `--jobs 4`" gate; every trial's seed is a pure function
//! of its *position* in the grid, so no emitted byte depends on worker
//! count or scheduling. Nothing here reads a clock: wall-clock numbers live
//! only in `examples/perfbench`.

use mmr_sim::sweep::{point_seed, SweepOptions};

/// One rendered field of a campaign record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A counter.
    Int(u64),
    /// A real printed in its shortest form (`100`, `0.25`).
    Real(f64),
    /// A real printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A name; quoted in JSON.
    Text(String),
    /// A measured truth value (`true` / `false`).
    Bool(bool),
    /// An experimental switch: `true` / `false` in JSON, `on` / `off` in the
    /// text table.
    Switch(bool),
}

impl Value {
    pub(crate) fn json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Real(v) => v.to_string(),
            Value::Fixed(v, decimals) => format!("{v:.decimals$}"),
            Value::Text(s) => format!("\"{s}\""),
            Value::Bool(b) | Value::Switch(b) => b.to_string(),
        }
    }

    fn cell(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Switch(on) => if *on { "on" } else { "off" }.to_string(),
            _ => self.json(),
        }
    }
}

/// One field of a campaign's record. The column list is written once, in
/// emission order; a column with an empty `key` appears only in the text
/// table (a derived or differently rounded view of a value the JSON carries
/// under its own key), one with `width == 0` only in the JSON record.
pub struct Column<C: Campaign + ?Sized> {
    /// JSON key (empty: table-only column).
    pub key: &'static str,
    /// Table header.
    pub head: &'static str,
    /// Table column width (0: JSON-only column).
    pub width: usize,
    /// Reads the field off a grid cell.
    pub value: fn(&C::Spec, &C::Cell) -> Value,
}

impl<C: Campaign + ?Sized> Column<C> {
    /// A field shown in the table — and in the JSON record, under `key`,
    /// unless that is empty.
    pub fn show(
        key: &'static str,
        head: &'static str,
        width: usize,
        value: fn(&C::Spec, &C::Cell) -> Value,
    ) -> Self {
        Column { key, head, width, value }
    }

    /// A JSON-only field.
    pub fn json(key: &'static str, value: fn(&C::Spec, &C::Cell) -> Value) -> Self {
        Column { key, head: "", width: 0, value }
    }
}

/// A seeded measurement campaign over a grid of cells.
pub trait Campaign {
    /// Registry name (`mmr-bench <NAME>`).
    const NAME: &'static str;
    /// Base seed; trial seeds derive from it by grid position.
    const SEED: u64;
    /// First line of the text table.
    const TITLE: &'static str;
    /// `BENCH_scale.json` predates the shared layout: one field per line
    /// under `"points"`, no seed header. Everything else writes one cell per
    /// line under `"campaigns"` after the seed.
    const WIDE_JSON: bool = false;
    /// What distinguishes one grid cell from another.
    type Spec: Clone + Sync;
    /// A trial's outcome, and the fold of a cell's trials.
    type Cell: Default + Send;

    /// The cells to measure: the CI-sized grid under `quick`, the full one
    /// otherwise.
    fn grid(quick: bool) -> Vec<Self::Spec>;

    /// Independent seeded trials folded into the cell.
    fn trials(_spec: &Self::Spec) -> usize {
        1
    }

    /// Position the trial's seed derives from: `flat`, its index in the
    /// `(cell, trial)` enumeration, unless the campaign pairs cells on a
    /// shared workload.
    fn seed_index(_spec: &Self::Spec, _ordinal: usize, flat: usize) -> usize {
        flat
    }

    /// Runs one trial; a pure function of `(spec, seed)`.
    fn run_trial(spec: &Self::Spec, seed: u64) -> Self::Cell;

    /// Folds a finished trial into its cell.
    fn absorb(cell: &mut Self::Cell, trial: Self::Cell);

    /// The record's fields, in emission order.
    fn columns() -> Vec<Column<Self>>;

    /// Exit-code gate over the finished grid (claims hold, budgets met,
    /// auditor clean); `Err` carries the failure report.
    fn verdict(_cells: &[(Self::Spec, Self::Cell)]) -> Result<(), String> {
        Ok(())
    }
}

/// Adds the named counter fields of `$from` into `$into`.
macro_rules! add_fields {
    ($into:expr, $from:expr; $($field:ident),+ $(,)?) => {
        $( $into.$field += $from.$field; )+
    };
}
pub(crate) use add_fields;

/// The one `(cell, trial)` fan-out: runs every trial of every cell of `grid`
/// through the sweep harness and returns each cell's trials in order. `run`
/// is handed the cell, the trial's ordinal within it, and its index in the
/// flat enumeration — positions only, never execution order.
pub fn fan_out<S: Sync, T: Send>(
    grid: &[S],
    trials: impl Fn(&S) -> usize,
    opts: &SweepOptions,
    run: impl Fn(&S, usize, usize) -> T + Sync,
) -> Vec<Vec<T>> {
    let points: Vec<(usize, usize)> = grid
        .iter()
        .enumerate()
        .flat_map(|(cell, spec)| (0..trials(spec)).map(move |ordinal| (cell, ordinal)))
        .collect();
    let results = opts.run_indexed(points.len(), |flat| {
        let (cell, ordinal) = points[flat];
        run(&grid[cell], ordinal, flat)
    });
    let mut results = results.into_iter();
    grid.iter().map(|spec| results.by_ref().take(trials(spec)).collect()).collect()
}

/// Runs `grid`, each trial seeded by its position, and folds the trials
/// into their cells in enumeration order.
pub fn run_grid<C: Campaign>(grid: &[C::Spec], opts: &SweepOptions) -> Vec<(C::Spec, C::Cell)> {
    let trials = fan_out(grid, C::trials, opts, |spec, ordinal, flat| {
        C::run_trial(spec, point_seed(C::SEED, C::seed_index(spec, ordinal, flat)))
    });
    let fold = |trials: Vec<C::Cell>| {
        let mut cell = C::Cell::default();
        trials.into_iter().for_each(|trial| C::absorb(&mut cell, trial));
        cell
    };
    grid.iter().cloned().zip(trials.into_iter().map(fold)).collect()
}

/// Renders the human-readable table: title, header, one row per cell. The
/// first column is left-aligned, the rest right-aligned.
pub fn render_table<C: Campaign>(cells: &[(C::Spec, C::Cell)]) -> String {
    let columns: Vec<Column<C>> = C::columns().into_iter().filter(|c| c.width > 0).collect();
    let row = |field: &dyn Fn(&Column<C>) -> String| {
        let fields: Vec<String> = columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (text, width) = (field(c), c.width);
                if i == 0 {
                    format!("{text:<width$}")
                } else {
                    format!("{text:>width$}")
                }
            })
            .collect();
        fields.join(" ") + "\n"
    };
    let mut out = format!("{}\n", C::TITLE);
    out.push_str(&row(&|c| c.head.to_string()));
    for (spec, cell) in cells {
        out.push_str(&row(&|c| (c.value)(spec, cell).cell()));
    }
    out
}

/// Renders the machine-readable record. Deliberately free of wall-clock
/// content, so the bytes are identical across job counts and machines.
pub fn render_json<C: Campaign>(cells: &[(C::Spec, C::Cell)]) -> String {
    let columns: Vec<Column<C>> = C::columns().into_iter().filter(|c| !c.key.is_empty()).collect();
    let (open, separator, close) =
        if C::WIDE_JSON { ("{\n      ", ",\n      ", "\n    }") } else { ("{", ", ", "}") };
    let rows: Vec<String> = cells
        .iter()
        .map(|(spec, cell)| {
            let fields: Vec<String> = columns
                .iter()
                .map(|c| format!("\"{}\": {}", c.key, (c.value)(spec, cell).json()))
                .collect();
            format!("    {open}{}{close}", fields.join(separator))
        })
        .collect();
    let head = if C::WIDE_JSON {
        "\"points\"".to_string()
    } else {
        format!("\"seed\": {},\n  \"campaigns\"", C::SEED)
    };
    format!("{{\n  {head}: [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// What a campaign run hands the command line: the text to print (and
/// `--table`), the JSON record for `--out` if the campaign has one, the
/// files for `--dir` if it has several, and its exit-code gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Human-readable rendering.
    pub text: String,
    /// Machine-readable rendering, for campaigns that commit one.
    pub json: Option<String>,
    /// The text split into its committed files, by file name.
    pub files: Vec<(&'static str, String)>,
    /// `Err` makes the process exit 1 with the report on stderr.
    pub verdict: Result<(), String>,
}

/// Runs `grid` and renders it: table, JSON and verdict.
pub fn run_cells<C: Campaign>(grid: &[C::Spec], opts: &SweepOptions) -> Output {
    let cells = run_grid::<C>(grid, opts);
    Output {
        text: render_table::<C>(&cells),
        json: Some(render_json::<C>(&cells)),
        files: Vec::new(),
        verdict: C::verdict(&cells),
    }
}

/// Runs `run` with one worker and with four and demands the same bytes —
/// the determinism gate behind `mmr-bench check`. Returns the serial
/// output so the caller can enforce its verdict.
pub fn jobs_identity<T: PartialEq>(run: impl Fn(&SweepOptions) -> T) -> Result<T, String> {
    let serial = run(&SweepOptions::serial());
    let parallel = run(&SweepOptions { jobs: 4, ..SweepOptions::serial() });
    if serial != parallel {
        return Err("output differs between --jobs 1 and --jobs 4".into());
    }
    Ok(serial)
}

/// For tests: panics unless the first two quick-grid cells are byte-identical across job counts.
#[doc(hidden)]
pub fn assert_jobs_identity<C: Campaign>() {
    let grid = C::grid(true);
    let sample = &grid[..grid.len().min(2)];
    if let Err(why) = jobs_identity(|opts| run_cells::<C>(sample, opts)) {
        panic!("{}: {why}", C::NAME);
    }
}
