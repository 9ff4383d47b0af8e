//! The submission application: direct model runs and optimization runs
//! for any registered science application.
//!
//! All user input is validated into typed values here; the simulation row
//! is the only thing that crosses to the daemon (§3's marshaling story).
//! Submission requires an approved account plus an authorization to use
//! the chosen machine/allocation (§4.1). Forms are rendered from each
//! application's [`ScienceApp::params`] schema, so adding an application
//! adds its submission pages without touching this module.
//!
//! [`ScienceApp::params`]: amp_core::app::ScienceApp::params

use std::sync::Arc;

use amp_core::app::{self, ScienceApp};
use amp_core::models::{Allocation, Observation, Simulation, Star, SystemAuthorization};
use amp_simdb::orm::Manager;
use amp_simdb::Query;

use crate::http::{html_escape, Request, Response};
use crate::portal::Portal;
use crate::router::Params;

fn allocations(p: &Portal) -> Vec<Allocation> {
    Manager::<Allocation>::new(p.conn().clone())
        .filter(&Query::new().eq("active", true))
        .unwrap_or_default()
}

fn allocation_options(p: &Portal) -> String {
    allocations(p)
        .iter()
        .map(|a| {
            format!(
                "<option value=\"{}\">{} on {} ({:.0} SUs left)</option>",
                a.id.unwrap(),
                html_escape(&a.account),
                html_escape(&a.system),
                a.su_remaining(),
            )
        })
        .collect()
}

fn require_submitter(p: &Portal, req: &Request) -> Result<amp_core::models::AmpUser, Response> {
    match p.current_user(req) {
        None => Err(Response::redirect("/accounts/login")),
        Some(u) if !u.approved => Err(Response::forbidden("account not approved")),
        Some(u) => Ok(u),
    }
}

fn load_star(p: &Portal, params: &Params) -> Result<Star, Response> {
    let id = params.id("star_id").ok_or_else(Response::not_found)?;
    Manager::<Star>::new(p.conn().clone())
        .get(id)
        .map_err(|_| Response::not_found())
}

/// Resolve the `<app>` path segment against the registry; an unknown id
/// gets the site-layout 404 page (the application browser lists what *is*
/// installed).
fn load_app(p: &Portal, req: &Request, params: &Params) -> Result<Arc<dyn ScienceApp>, Response> {
    let id = params.get("app").unwrap_or_default();
    app::lookup(id).ok_or_else(|| {
        p.page_not_found(
            p.current_user(req).as_ref(),
            &format!("no science application {id:?} is installed on this portal"),
        )
    })
}

/// Authorization + allocation resolution shared by both submit paths.
fn resolve_allocation(
    p: &Portal,
    user: &amp_core::models::AmpUser,
    form: &std::collections::BTreeMap<String, String>,
) -> Result<Allocation, Response> {
    let alloc_id: i64 = form
        .get("allocation")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Response::bad_request("choose an allocation"))?;
    let alloc = Manager::<Allocation>::new(p.conn().clone())
        .get(alloc_id)
        .map_err(|_| Response::bad_request("no such allocation"))?;
    if !alloc.active {
        return Err(Response::bad_request("allocation is inactive"));
    }
    let auth_mgr = Manager::<SystemAuthorization>::new(p.conn().clone());
    let authorized =
        SystemAuthorization::is_authorized(&auth_mgr, user.id.unwrap(), alloc_id).unwrap_or(false);
    if !authorized {
        return Err(Response::forbidden(
            "you are not authorized to submit to this machine with this allocation",
        ));
    }
    Ok(alloc)
}

/// Render a schema default the way the old hand-written forms did: whole
/// numbers keep one decimal place ("1.0"), everything else prints plainly.
fn default_value(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One `<label>` + `<input>` per schema parameter, bounds inline.
fn param_fields(app: &dyn ScienceApp) -> String {
    app.params()
        .iter()
        .map(|s| {
            let unit = if s.unit.is_empty() {
                String::new()
            } else {
                format!(" {}", s.unit)
            };
            format!(
                "<label>{} [{}–{}{unit}] <input name=\"{}\" value=\"{}\"></label><br>",
                s.label,
                s.lo,
                s.hi,
                s.name,
                default_value(s.default),
            )
        })
        .collect()
}

fn render_direct_form(p: &Portal, req: &Request, app: &dyn ScienceApp, star: &Star) -> Response {
    let body = format!(
        "<h2>Direct model run — {}</h2>\
         <form method=\"post\">\
         {}\
         <label>Allocation <select name=\"allocation\">{}</select></label><br>\
         <button>Run model</button></form>",
        html_escape(&star.identifier),
        param_fields(app),
        allocation_options(p),
    );
    p.page("Direct run", p.current_user(req).as_ref(), &body)
}

fn handle_direct_submit(p: &Portal, req: &Request, app: &dyn ScienceApp, star: &Star) -> Response {
    let user = match require_submitter(p, req) {
        Ok(u) => u,
        Err(r) => return r,
    };
    let form = req.form();
    let mut values = serde_json::Map::new();
    for spec in app.params() {
        let v = match form
            .get(spec.name)
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|v| v.is_finite())
        {
            Some(v) => v,
            None => return Response::bad_request(&format!("{} must be a number", spec.name)),
        };
        values.insert(spec.name.to_string(), serde_json::json!(v));
    }
    let params_json = serde_json::Value::Object(values);
    if app.validate_params(&params_json).is_err() {
        return Response::bad_request("parameters outside the supported domain");
    }
    let alloc = match resolve_allocation(p, &user, &form) {
        Ok(a) => a,
        Err(r) => return r,
    };
    let mut sim = Simulation::direct_for(
        app.id(),
        star.id.unwrap(),
        user.id.unwrap(),
        params_json,
        &alloc.system,
        alloc.id.unwrap(),
        p.now(),
    );
    match Manager::<Simulation>::new(p.conn().clone()).create(&mut sim) {
        Ok(id) => Response::redirect(&format!("/simulation/{id}")),
        Err(e) => Response::server_error(&e.to_string()),
    }
}

fn render_optimization_form(
    p: &Portal,
    req: &Request,
    app: &dyn ScienceApp,
    star: &Star,
) -> Response {
    let observations = Manager::<Observation>::new(p.conn().clone())
        .filter(&Query::new().eq("star_id", star.id.unwrap()))
        .unwrap_or_default();
    let obs_options: String = observations
        .iter()
        .map(|o| {
            format!(
                "<option value=\"{}\">observation #{} (uploaded t={})</option>",
                o.id.unwrap(),
                o.id.unwrap(),
                o.created_at
            )
        })
        .collect();
    let default = app.resources().default_spec;
    let body = format!(
        "<h2>Optimization run — {}</h2>\
         <p>Ensemble of independent genetic-algorithm runs (the Kepler \
         configuration uses 4 runs × 126 models × 200 iterations on 128 \
         processors each).</p>\
         <form method=\"post\">\
         <label>Observation set <select name=\"observation\">{obs_options}</select></label><br>\
         <label>GA runs <input name=\"ga_runs\" value=\"{}\"></label><br>\
         <label>Iterations <input name=\"generations\" value=\"{}\"></label><br>\
         <label>Allocation <select name=\"allocation\">{}</select></label><br>\
         <button>Submit optimization</button></form>",
        html_escape(&star.identifier),
        default.ga_runs,
        default.generations,
        allocation_options(p),
    );
    p.page("Optimization run", p.current_user(req).as_ref(), &body)
}

fn handle_optimization_submit(
    p: &Portal,
    req: &Request,
    app: &dyn ScienceApp,
    star: &Star,
) -> Response {
    let user = match require_submitter(p, req) {
        Ok(u) => u,
        Err(r) => return r,
    };
    let form = req.form();
    let obs_id: i64 = match form.get("observation").and_then(|s| s.parse().ok()) {
        Some(v) => v,
        None => return Response::bad_request("choose an observation set"),
    };
    let obs = match Manager::<Observation>::new(p.conn().clone()).get(obs_id) {
        Ok(o) if o.star_id == star.id.unwrap() => o,
        Ok(_) => return Response::bad_request("observation belongs to another star"),
        Err(_) => return Response::bad_request("no such observation"),
    };
    let default = app.resources().default_spec;
    let ga_runs: u32 = form
        .get("ga_runs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default.ga_runs);
    let generations: u32 = form
        .get("generations")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default.generations);
    if !(1..=16).contains(&ga_runs) || !(1..=1000).contains(&generations) {
        return Response::bad_request("ensemble parameters out of range");
    }
    let alloc = match resolve_allocation(p, &user, &form) {
        Ok(a) => a,
        Err(r) => return r,
    };
    let spec = amp_core::OptimizationSpec {
        ga_runs,
        generations,
        // user id + clock give each submission distinct GA seeds (§2)
        seed: (user.id.unwrap() as u64) << 32 | (p.now() as u64 & 0xffff_ffff),
        ..default
    };
    let mut sim = Simulation::optimization_for(
        app.id(),
        star.id.unwrap(),
        user.id.unwrap(),
        spec,
        obs.id.unwrap(),
        &alloc.system,
        alloc.id.unwrap(),
        p.now(),
    );
    match Manager::<Simulation>::new(p.conn().clone()).create(&mut sim) {
        Ok(id) => Response::redirect(&format!("/simulation/{id}")),
        Err(e) => Response::server_error(&e.to_string()),
    }
}

// ---- the routes (/submit/<app>/direct/<star_id> etc.) ----

/// Resolve the `<app>` and `<star_id>` a submission URL names and hand
/// them to `view`; either failing to resolve is the response.
fn with_target(
    p: &Portal,
    req: &Request,
    params: &Params,
    view: fn(&Portal, &Request, &dyn ScienceApp, &Star) -> Response,
) -> Response {
    match (load_app(p, req, params), load_star(p, params)) {
        (Ok(app), Ok(star)) => view(p, req, app.as_ref(), &star),
        (Err(r), _) | (_, Err(r)) => r,
    }
}

pub fn app_direct_form(p: &Portal, req: &Request, params: &Params) -> Response {
    with_target(p, req, params, render_direct_form)
}

pub fn app_direct_submit(p: &Portal, req: &Request, params: &Params) -> Response {
    with_target(p, req, params, handle_direct_submit)
}

pub fn app_optimization_form(p: &Portal, req: &Request, params: &Params) -> Response {
    with_target(p, req, params, render_optimization_form)
}

pub fn app_optimization_submit(p: &Portal, req: &Request, params: &Params) -> Response {
    with_target(p, req, params, handle_optimization_submit)
}
