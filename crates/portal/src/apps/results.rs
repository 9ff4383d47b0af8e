//! The results application: simulation lists, status/detail pages, and
//! plot data (HR diagram + Echelle, §2) as JSON for the AJAX front end.

use amp_core::app;
use amp_core::models::{GridJobRecord, Simulation, Star};
use amp_core::status::SimStatus;
use amp_core::SimKind;
use amp_simdb::orm::{row_value, Manager, Model};
use amp_simdb::{Query, Value};
use amp_stellar::{
    echelle, evolution_track, render_echelle_ascii, render_hr_ascii, Domain, ModelOutput,
};

use crate::http::{html_escape, Request, Response};
use crate::portal::Portal;
use crate::router::Params;

fn sims(p: &Portal) -> Manager<Simulation> {
    Manager::new(p.conn().clone())
}

pub fn list(p: &Portal, req: &Request, _: &Params) -> Response {
    let user = p.current_user(req);
    let mgr = sims(p);
    let rows = match &user {
        Some(u) => mgr
            .filter(
                &Query::new()
                    .eq("owner_id", u.id.unwrap())
                    .order_by_desc("id"),
            )
            .unwrap_or_default(),
        None => mgr
            .filter(
                &Query::new()
                    .eq("status", SimStatus::Done.as_str())
                    .order_by_desc("id")
                    .limit(50),
            )
            .unwrap_or_default(),
    };
    let mut body = String::from("<h2>Simulations</h2><table><tr><th>id</th><th>star</th><th>kind</th><th>status</th><th>progress</th></tr>");
    for s in &rows {
        body.push_str(&format!(
            "<tr><td><a href=\"/simulation/{id}\">#{id}</a></td><td>{}</td><td>{}</td><td>{}</td><td>{:.0}%</td></tr>",
            html_escape(&star_identifier(p, s.star_id)),
            s.kind.as_str(),
            s.status,
            s.progress * 100.0,
            id = s.id.unwrap(),
        ));
    }
    body.push_str("</table>");
    if user.is_none() {
        body.push_str(
            "<p>Showing recently completed public results. Log in to see your own runs.</p>",
        );
    }
    p.page("Simulations", user.as_ref(), &body)
}

/// The identifier of a simulation's star, for the lists of simulations
/// here and on `/`: one cell of the star's row, not a decoded [`Star`].
pub(crate) fn star_identifier(p: &Portal, star_id: i64) -> String {
    if let Ok(row) = p.conn().get(Star::TABLE, star_id) {
        if let Ok(Value::Text(identifier)) = row_value::<Star>(&row, "identifier") {
            return identifier.to_string();
        }
    }
    format!("star {star_id}")
}

pub fn detail(p: &Portal, req: &Request, params: &Params) -> Response {
    let Some(id) = params.id("id") else {
        return Response::not_found();
    };
    let Ok(sim) = sims(p).get(id) else {
        return Response::not_found();
    };
    // A simulation whose application is no longer installed has no way to
    // render its results — a layout 404, not a crash or an empty page.
    if app::lookup(&sim.app).is_none() {
        return p.page_not_found(
            p.current_user(req).as_ref(),
            &format!(
                "simulation #{id} belongs to science application {:?}, \
                 which is not installed on this portal",
                sim.app
            ),
        );
    }
    let jobs = Manager::<GridJobRecord>::new(p.conn().clone())
        .filter(&Query::new().eq("simulation_id", id).order_by("id"))
        .unwrap_or_default();

    let mut body = format!(
        "<h2>Simulation #{id} — {}</h2>\
         <p>Status: <b>{}</b> ({:.0}% complete)</p>",
        sim.kind.as_str(),
        sim.status,
        sim.progress * 100.0,
    );
    if !sim.status_message.is_empty() {
        // §4.4: transients annotate the display in plain language.
        body.push_str(&format!(
            "<p><em>{}</em></p>",
            html_escape(&sim.status_message)
        ));
    }
    body.push_str(&format!(
        "<p>System: {} | submitted at t={}{}</p>",
        html_escape(&sim.system),
        sim.created_at,
        sim.completed_at
            .map(|t| format!(" | completed at t={t}"))
            .unwrap_or_default(),
    ));

    // Job progress table (read-only; the portal holds no grid state).
    body.push_str("<h3>Computational jobs</h3><table><tr><th>purpose</th><th>run</th><th>status</th><th>cores</th><th>wait (s)</th><th>run (s)</th></tr>");
    for j in &jobs {
        body.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            j.purpose.as_str(),
            if j.ga_run >= 0 {
                format!("GA {} / job {}", j.ga_run + 1, j.continuation + 1)
            } else {
                "—".to_string()
            },
            j.status,
            j.cores,
            j.wait_secs().map(|w| w.to_string()).unwrap_or_default(),
            j.run_secs().map(|r| r.to_string()).unwrap_or_default(),
        ));
    }
    body.push_str("</table>");

    if sim.status == SimStatus::Done {
        body.push_str(&render_results(&sim));
        // The HR/Echelle plots are asteroseismology-specific; other
        // applications render only their summary table.
        if sim.app == "stellar" {
            body.push_str(&render_ascii_plots(&sim));
            body.push_str(&format!(
                "<p><a href=\"/simulation/{id}/plots.json\">HR + Echelle plot data (JSON)</a></p>"
            ));
        }
    }
    p.page(
        &format!("Simulation #{id}"),
        p.current_user(req).as_ref(),
        &body,
    )
}

/// Render the result summary through the simulation's science application:
/// the app owns its artifact format and hands back `(heading, rows)`.
fn render_results(sim: &Simulation) -> String {
    let Some(raw) = &sim.result_json else {
        return "<p>No results recorded.</p>".to_string();
    };
    let Some(app) = app::lookup(&sim.app) else {
        return "<p>Result payload unreadable.</p>".to_string();
    };
    match app.result_summary(sim.kind, raw) {
        Some((heading, rows)) => {
            let mut out = format!("<h3>{heading}</h3><table>");
            for (k, v) in rows {
                out.push_str(&format!("<tr><td>{k}</td><td>{v}</td></tr>"));
            }
            out.push_str("</table>");
            out
        }
        None => "<p>Result payload unreadable.</p>".to_string(),
    }
}

/// Extract the stellar result model from a simulation row, for plotting.
fn result_model(sim: &Simulation) -> Option<ModelOutput> {
    let raw = sim.result_json.as_ref()?;
    match sim.kind {
        SimKind::Direct => serde_json::from_str(raw).ok(),
        SimKind::Optimization => serde_json::from_str::<serde_json::Value>(raw)
            .ok()
            .and_then(|v| serde_json::from_value(v.get("detail")?.clone()).ok()),
    }
}

/// Server-side ASCII plots (§2's HR diagram and Echelle plot), so results
/// pages work without any JavaScript (§4.2).
fn render_ascii_plots(sim: &Simulation) -> String {
    let Some(model) = result_model(sim) else {
        return String::new();
    };
    let domain = Domain::default();
    let track = evolution_track(&model.params, &domain, 60).unwrap_or_default();
    let ech = echelle(&model.frequencies, model.delta_nu);
    format!(
        "<h3>Plots</h3><pre>{}</pre><pre>{}</pre>",
        html_escape(&render_hr_ascii(&track, 64, 18)),
        html_escape(&render_echelle_ascii(&ech, model.delta_nu, 64, 20)),
    )
}

/// HR-diagram track and Echelle diagram data for the result model (§2:
/// "basic graphical plots describing the star's characteristics").
pub fn plots(p: &Portal, _req: &Request, params: &Params) -> Response {
    let Some(id) = params.id("id") else {
        return Response::not_found();
    };
    let Ok(sim) = sims(p).get(id) else {
        return Response::not_found();
    };
    // HR/Echelle data exists only for the asteroseismology application.
    if sim.app != "stellar" || sim.result_json.is_none() {
        return Response::not_found();
    }
    let Some(model) = result_model(&sim) else {
        return Response::server_error("result payload unreadable");
    };
    let domain = Domain::default();
    let track = evolution_track(&model.params, &domain, 40).unwrap_or_default();
    let ech = echelle(&model.frequencies, model.delta_nu);
    Response::json(&serde_json::json!({
        "hr_track": track.iter().map(|t| {
            serde_json::json!({"age_gyr": t.age_gyr, "teff": t.teff, "luminosity": t.luminosity})
        }).collect::<Vec<_>>(),
        "echelle": ech.iter().map(|e| {
            serde_json::json!({"l": e.l, "frequency": e.frequency, "modulo": e.modulo})
        }).collect::<Vec<_>>(),
        "delta_nu": model.delta_nu,
        "nu_max": model.nu_max,
    }))
}
