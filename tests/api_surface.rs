//! Exhaustive API-surface smoke: every published API of every OS is
//! driven end to end through the agent at least once, with producers
//! synthesised for its resource parameters. Nothing may panic on the
//! host, and the target must stay drivable afterwards.

use eof::core::{boot_executor, cached_image};
use eof::hal::FaultPlan;
use eof::prelude::*;
use eof::rtos::api::ArgKind;
use eof::speclang::prog::{ArgValue, Call};

fn executor(os: OsKind) -> Executor {
    let config = FuzzerConfig::eof(os, 2);
    let image = cached_image(os, config.profile, &config.effective_instrument());
    boot_executor(&config, &image, FaultPlan::none())
}

/// A benign value for one parameter, producing prerequisite calls into
/// `prefix` for resource parameters.
fn benign_value(os: OsKind, kind: &ArgKind, prefix: &mut Vec<Call>, depth: usize) -> ArgValue {
    match kind {
        ArgKind::Int { min, max, .. } => {
            // Mid-range keeps clear of the magic edges.
            ArgValue::Int(min + (max - min) / 3)
        }
        ArgKind::Enum { values, .. } => ArgValue::Int(values.first().map(|(_, v)| *v).unwrap_or(0)),
        ArgKind::Str { max } => ArgValue::CString("t0".chars().take(*max as usize).collect()),
        ArgKind::Bytes { .. } => ArgValue::Buffer(b"[1]".to_vec()),
        ArgKind::ResourceIn(res) => {
            if depth < 3 {
                // Find a producer API for this resource kind.
                let kernel = eof::rtos::registry::make_kernel(os);
                let producer = kernel
                    .api_table()
                    .iter()
                    .find(|d| d.returns == Some(res))
                    .cloned();
                if let Some(p) = producer {
                    let args = p
                        .args
                        .iter()
                        .map(|a| benign_value(os, &a.kind, prefix, depth + 1))
                        .collect();
                    prefix.push(Call {
                        api: p.name.to_string(),
                        args,
                    });
                    return ArgValue::ResourceRef(prefix.len() as u16 - 1);
                }
            }
            ArgValue::Int(u64::MAX)
        }
    }
}

#[test]
fn every_api_of_every_os_executes_end_to_end() {
    for os in OsKind::ALL {
        let mut ex = executor(os);
        let kernel = eof::rtos::registry::make_kernel(os);
        for desc in kernel.api_table() {
            let mut calls = Vec::new();
            let args = desc
                .args
                .iter()
                .map(|a| benign_value(os, &a.kind, &mut calls, 0))
                .collect();
            calls.push(Call {
                api: desc.name.to_string(),
                args,
            });
            let prog = Prog {
                mmio: vec![],
                calls,
            };
            let outcome = ex.run_one(&prog);
            // Benign mid-range arguments must not trip any seeded bug
            // (the Table-2 triggers all need edge values or chains that
            // this construction avoids).
            assert!(
                outcome.crash.is_none(),
                "{os}::{}: unexpected crash {:?}",
                desc.name,
                outcome.crash.map(|c| c.message)
            );
        }
        // The target is still healthy after sweeping the whole surface.
        let probe = Prog {
            mmio: vec![],
            calls: vec![Call {
                api: kernel.api_table()[0].name.to_string(),
                args: kernel.api_table()[0]
                    .args
                    .iter()
                    .map(|a| benign_value(os, &a.kind, &mut Vec::new(), 3))
                    .collect(),
            }],
        };
        let out = ex.run_one(&probe);
        assert!(out.crash.is_none(), "{os}: post-sweep probe crashed");
    }
}

#[test]
fn spec_surface_equals_kernel_surface() {
    // The validated spec drives exactly the published APIs: the default
    // scope is everything outside the driver modules, and the driver
    // scope restores the full surface.
    for os in OsKind::ALL {
        let kernel = eof::rtos::registry::make_kernel(os);
        let pure_surface = kernel
            .api_table()
            .iter()
            .filter(|d| !eof::specgen::DRIVER_MODULES.contains(&d.module))
            .count();
        let (spec, _) = generate_validated(os, &NoiseConfig::none(), true);
        assert_eq!(spec.apis.len(), pure_surface, "{os}");
        let (full, _) =
            eof::specgen::generate_validated_scoped(os, &NoiseConfig::none(), true, true);
        assert_eq!(
            full.apis.len(),
            kernel.api_table().len(),
            "{os} driver scope"
        );
    }
}
