//! The §6 Gantt tool: "a graphical tool that plots job wait vs. execution
//! time on a Gantt chart for each AMP simulation, as well as calculating
//! aggregate execution wait and run time statistics, in order to
//! understand the impact of queue wait time on various systems."

use amp_core::models::{GridJobRecord, Simulation};
use amp_simdb::orm::Manager;
use amp_simdb::{Connection, DbError, Query};

/// One bar of the chart.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttRow {
    pub label: String,
    pub cores: i64,
    pub submitted_at: i64,
    pub started_at: Option<i64>,
    pub ended_at: Option<i64>,
}

impl GanttRow {
    pub fn wait_secs(&self) -> Option<i64> {
        self.started_at.map(|s| (s - self.submitted_at).max(0))
    }

    pub fn run_secs(&self) -> Option<i64> {
        match (self.started_at, self.ended_at) {
            (Some(s), Some(e)) => Some((e - s).max(0)),
            _ => None,
        }
    }
}

/// The chart for one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttChart {
    pub simulation_id: i64,
    pub system: String,
    pub rows: Vec<GanttRow>,
}

/// Summary wait/run statistics over a set of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitRunStats {
    pub jobs: usize,
    pub mean_wait_secs: f64,
    pub median_wait_secs: f64,
    pub max_wait_secs: i64,
    pub mean_run_secs: f64,
    /// Total wait / total run — the §6 "impact of queue wait" headline.
    pub wait_to_run_ratio: f64,
}

/// Build the chart for a simulation from its grid-job records.
pub fn chart_for(conn: &Connection, simulation_id: i64) -> Result<GanttChart, DbError> {
    let sims = Manager::<Simulation>::new(conn.clone());
    let sim = sims.get(simulation_id)?;
    let jobs = Manager::<GridJobRecord>::new(conn.clone()).filter(
        &Query::new()
            .eq("simulation_id", simulation_id)
            .order_by("submitted_at"),
    )?;
    let rows = jobs
        .into_iter()
        .filter(|j| j.submitted_at.is_some())
        .map(|j| GanttRow {
            label: format!(
                "{}{}",
                j.purpose.as_str().to_lowercase(),
                if j.ga_run >= 0 {
                    format!("-r{}c{}", j.ga_run, j.continuation)
                } else {
                    String::new()
                }
            ),
            cores: j.cores,
            submitted_at: j.submitted_at.unwrap_or_default(),
            started_at: j.started_at,
            ended_at: j.ended_at,
        })
        .collect();
    Ok(GanttChart {
        simulation_id,
        system: sim.system,
        rows,
    })
}

/// Summary statistics over completed rows.
pub fn stats(rows: &[GanttRow]) -> WaitRunStats {
    let mut waits: Vec<i64> = rows.iter().filter_map(|r| r.wait_secs()).collect();
    let runs: Vec<i64> = rows.iter().filter_map(|r| r.run_secs()).collect();
    waits.sort_unstable();
    let jobs = waits.len();
    let total_wait: i64 = waits.iter().sum();
    let total_run: i64 = runs.iter().sum();
    WaitRunStats {
        jobs,
        mean_wait_secs: if jobs == 0 {
            0.0
        } else {
            total_wait as f64 / jobs as f64
        },
        median_wait_secs: if jobs == 0 {
            0.0
        } else {
            waits[jobs / 2] as f64
        },
        max_wait_secs: waits.last().copied().unwrap_or(0),
        mean_run_secs: if runs.is_empty() {
            0.0
        } else {
            total_run as f64 / runs.len() as f64
        },
        wait_to_run_ratio: if total_run == 0 {
            0.0
        } else {
            total_wait as f64 / total_run as f64
        },
    }
}

/// Render an ASCII Gantt chart (`.` = queued wait, `#` = execution).
pub fn render_ascii(chart: &GanttChart, width: usize) -> String {
    let width = width.max(20);
    let t0 = chart.rows.iter().map(|r| r.submitted_at).min().unwrap_or(0);
    let t1 = chart
        .rows
        .iter()
        .filter_map(|r| r.ended_at.or(r.started_at))
        .max()
        .unwrap_or(t0 + 1)
        .max(t0 + 1);
    let span = (t1 - t0) as f64;
    let scale =
        |t: i64| -> usize { (((t - t0) as f64 / span) * (width as f64 - 1.0)).round() as usize };
    let mut out = String::new();
    out.push_str(&format!(
        "simulation {} on {} ({} jobs)\n",
        chart.simulation_id,
        chart.system,
        chart.rows.len()
    ));
    let label_w = chart
        .rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(4)
        .max(4);
    for row in &chart.rows {
        let mut bar = vec![b' '; width];
        let s = scale(row.submitted_at);
        let st = row.started_at.map(scale).unwrap_or(width - 1);
        let en = row.ended_at.map(scale).unwrap_or(st);
        for cell in bar.iter_mut().take(st.min(width - 1) + 1).skip(s) {
            *cell = b'.';
        }
        for cell in bar.iter_mut().take(en.min(width - 1) + 1).skip(st) {
            *cell = b'#';
        }
        out.push_str(&format!(
            "{:label_w$} |{}|\n",
            row.label,
            String::from_utf8(bar).expect("ascii"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<GanttRow> {
        vec![
            GanttRow {
                label: "work-r0c0".into(),
                cores: 128,
                submitted_at: 0,
                started_at: Some(600),
                ended_at: Some(4200),
            },
            GanttRow {
                label: "work-r1c0".into(),
                cores: 128,
                submitted_at: 0,
                started_at: Some(1200),
                ended_at: Some(4800),
            },
            GanttRow {
                label: "prejob".into(),
                cores: 0,
                submitted_at: 0,
                started_at: Some(0),
                ended_at: Some(6),
            },
        ]
    }

    #[test]
    fn stats_aggregate_correctly() {
        let s = stats(&rows());
        assert_eq!(s.jobs, 3);
        assert_eq!(s.max_wait_secs, 1200);
        assert!((s.mean_wait_secs - 600.0).abs() < 1e-9);
        assert_eq!(s.median_wait_secs, 600.0);
        let total_run = 3600 + 3600 + 6;
        assert!((s.wait_to_run_ratio - 1800.0 / total_run as f64).abs() < 1e-9);
    }

    #[test]
    fn stats_empty() {
        let s = stats(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.wait_to_run_ratio, 0.0);
    }

    #[test]
    fn incomplete_rows_excluded_from_run_stats() {
        let r = vec![GanttRow {
            label: "queued".into(),
            cores: 1,
            submitted_at: 100,
            started_at: None,
            ended_at: None,
        }];
        let s = stats(&r);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_run_secs, 0.0);
    }

    #[test]
    fn ascii_render_shape() {
        let chart = GanttChart {
            simulation_id: 7,
            system: "kraken".into(),
            rows: rows(),
        };
        let art = render_ascii(&chart, 40);
        assert!(art.contains("simulation 7 on kraken"));
        assert!(art.contains('#'));
        assert!(art.contains('.'));
        assert_eq!(art.lines().count(), 4);
        // bars are equal width
        let widths: Vec<usize> = art
            .lines()
            .skip(1)
            .map(|l| l.split('|').nth(1).unwrap().len())
            .collect();
        assert!(widths.iter().all(|w| *w == widths[0]));
    }
}
