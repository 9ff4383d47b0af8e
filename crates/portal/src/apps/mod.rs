//! The portal's Django-style applications.
//!
//! §4.2: "we wrote separate Django applications to implement independent
//! portions of the website functionality. One application allows users to
//! browse and search star catalogs, one allows users to view completed
//! simulation results, and another facilitates simulation submission."
//! Plus the account app (auth + CAPTCHA), the admin interface (§4.1) and
//! the RSS feeds (§6 future work, implemented here).

pub mod accounts;
pub mod admin;
pub mod appstore;
pub mod catalog;
pub mod feeds;
pub mod results;
pub mod submit;

use crate::router::Router;

/// Wire the full URL map. Admin routes exist only on admin-enabled
/// deploys — on the public portal they are not merely forbidden, they are
/// absent.
pub fn build_router(admin_enabled: bool) -> Router {
    let mut r = Router::new();

    // observability: Prometheus text exposition of the process-wide
    // metrics registry (portal + simdb + daemon + GA series). Never
    // cached — scrapes must see live values.
    r.get("/metrics", |_, _, _| {
        use crate::http::Response;
        Response {
            status: 200,
            headers: vec![(
                "Content-Type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
            body: amp_obs::render_prometheus().into_bytes(),
            user_slot: None,
        }
    });

    // home
    r.get("/", |p, req, _| {
        use crate::http::html_escape;
        use amp_core::models::{Simulation, Star};
        use amp_simdb::orm::Manager;
        use amp_simdb::Query;
        let user = p.current_user(req);
        let stars = Manager::<Star>::new(p.conn().clone());
        let sims = Manager::<Simulation>::new(p.conn().clone());
        // status is indexed: the "done" count below is an index probe that
        // never clones a row, and the recent-5 list is a top-k over the
        // probe's candidates rather than a full-table sort.
        let done_q = Query::new().eq("status", amp_core::SimStatus::Done.as_str());
        let mut body = format!(
            "<p>Derive the properties of Sun-like stars from observations of their \
             pulsation frequencies.</p>\
             <ul><li><a href=\"/stars\">Browse the star catalog</a> ({} stars, \
             {} with results)</li>\
             <li><a href=\"/stars/search\">Search for a target</a></li>\
             <li><a href=\"/simulations\">View simulations</a> ({} completed)</li></ul>",
            stars.count(&Query::new()).unwrap_or(0),
            stars
                .count(&Query::new().eq("has_results", true))
                .unwrap_or(0),
            sims.count(&done_q).unwrap_or(0),
        );
        let recent = sims
            .filter(&done_q.order_by_desc("id").limit(5))
            .unwrap_or_default();
        if !recent.is_empty() {
            body.push_str("<h3>Recently completed</h3><ul>");
            for s in &recent {
                body.push_str(&format!(
                    "<li><a href=\"/simulation/{id}\">#{id} {} of {}</a></li>",
                    html_escape(s.kind.as_str()),
                    html_escape(&results::star_identifier(p, s.star_id)),
                    id = s.id.unwrap_or(0),
                ));
            }
            body.push_str("</ul>");
        }
        p.page("Home", user.as_ref(), &body)
    });

    // accounts app
    r.get("/accounts/register", accounts::register_form);
    r.post("/accounts/register", accounts::register_submit);
    r.get("/accounts/pending", accounts::pending);
    r.get("/accounts/login", accounts::login_form);
    r.post("/accounts/login", accounts::login_submit);
    r.get("/accounts/logout", accounts::logout);
    r.get("/accounts/profile", accounts::profile_form);
    r.post("/accounts/profile", accounts::profile_submit);

    // catalog app
    r.get("/stars", catalog::browse);
    r.get("/stars/search", catalog::search);
    r.get("/api/suggest", catalog::suggest);
    r.get("/star/<ident>", catalog::star_detail);
    r.post("/star/<ident>/observations", catalog::upload_observation);

    // results app
    r.get("/simulations", results::list);
    r.get("/simulation/<id>", results::detail);
    r.get("/simulation/<id>/plots.json", results::plots);

    // application browser
    r.get("/apps", appstore::browse);
    r.get("/apps/<app>", appstore::detail);

    // submission app — one route family per registered application
    r.get("/submit/<app>/direct/<star_id>", submit::app_direct_form);
    r.post("/submit/<app>/direct/<star_id>", submit::app_direct_submit);
    r.get(
        "/submit/<app>/optimization/<star_id>",
        submit::app_optimization_form,
    );
    r.post(
        "/submit/<app>/optimization/<star_id>",
        submit::app_optimization_submit,
    );

    // feeds (§6) — the captured segment carries the ".rss" extension
    r.get("/feeds/star/<id>", feeds::star_feed);

    if admin_enabled {
        r.get("/admin", admin::dashboard);
        r.get("/admin/table/<name>", admin::table_list);
        r.post("/admin/table/<name>/<id>/set", admin::set_field);
        r.post("/admin/users/<id>/approve", admin::approve_user);
        r.post("/admin/authorize", admin::authorize);
        r.post("/admin/simulations/<id>/resume", admin::resume_hold);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_routes_absent_on_public_deploys() {
        let public = build_router(false);
        let internal = build_router(true);
        assert!(internal.len() > public.len());
        assert_eq!(internal.len() - public.len(), 6);
    }
}
