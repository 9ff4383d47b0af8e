//! The application browser: AMP as a multi-application portal.
//!
//! The paper's portal serves one pipeline; its lineage (GRAPPA, Astrocomp)
//! serves many. This app lists every registered [`ScienceApp`] and renders
//! a detail page per application — parameter schema, resource template,
//! and submission links — straight from the registry, so installing an
//! application is all it takes to appear here.
//!
//! [`ScienceApp`]: amp_core::app::ScienceApp

use amp_core::app::{self, ScienceApp};

use crate::http::{html_escape, Request, Response};
use crate::portal::Portal;
use crate::router::Params;

/// GET /apps — the application catalog.
pub fn browse(p: &Portal, req: &Request, _: &Params) -> Response {
    let mut body = String::from(
        "<h2>Science applications</h2>\
         <p>Each application brings its own forward model, parameter \
         space, and genetic-algorithm coupling; all of them share the \
         same submission, execution, and results machinery.</p>",
    );
    for a in app::builtin() {
        body.push_str(&format!(
            "<h3><a href=\"/apps/{id}\">{title}</a> <code>{id}</code></h3>\
             <p>{desc}</p>",
            id = a.id(),
            title = html_escape(a.title()),
            desc = html_escape(a.description()),
        ));
    }
    p.page("Applications", p.current_user(req).as_ref(), &body)
}

fn schema_table(a: &dyn ScienceApp) -> String {
    let mut t = String::from(
        "<table><tr><th>parameter</th><th>label</th><th>range</th>\
         <th>unit</th><th>default</th></tr>",
    );
    for s in a.params() {
        t.push_str(&format!(
            "<tr><td><code>{}</code></td><td>{}</td><td>{}–{}</td><td>{}</td><td>{}</td></tr>",
            s.name,
            s.label,
            s.lo,
            s.hi,
            if s.unit.is_empty() { "—" } else { s.unit },
            s.default,
        ));
    }
    t.push_str("</table>");
    t
}

/// `GET /apps/<app>` — one application's schema, resources, and entry points.
pub fn detail(p: &Portal, req: &Request, params: &Params) -> Response {
    let id = params.get("app").unwrap_or_default();
    let Some(a) = app::lookup(id) else {
        return p.page_not_found(
            p.current_user(req).as_ref(),
            &format!("no science application {id:?} is installed on this portal"),
        );
    };
    let spec = a.resources();
    let body = format!(
        "<h2>{title} <code>{id}</code></h2>\
         <p>{desc}</p>\
         <h3>Parameter space ({n} genes)</h3>{schema}\
         <h3>Resources</h3>\
         <p>Direct model runs use {cores} core(s); the default optimization \
         ensemble is {runs} GA runs × {pop} candidates × {gens} iterations \
         on {per_run} processors each.</p>\
         <p>To submit, pick a target from <a href=\"/stars\">the catalog</a> \
         and choose <em>{title}</em> on its page; direct runs live at \
         <code>/submit/{id}/direct/&lt;star&gt;</code> and optimizations at \
         <code>/submit/{id}/optimization/&lt;star&gt;</code>.</p>",
        title = html_escape(a.title()),
        id = a.id(),
        desc = html_escape(a.description()),
        n = a.n_genes(),
        schema = schema_table(a.as_ref()),
        cores = spec.model_cores,
        runs = spec.default_spec.ga_runs,
        pop = spec.default_spec.population,
        gens = spec.default_spec.generations,
        per_run = spec.default_spec.cores_per_run,
    );
    p.page(a.title(), p.current_user(req).as_ref(), &body)
}
