//! Per-check Pafish tests: exactly which evidence fires on which
//! environment, with and without Scarecrow.

use pafish_sim::{all_checks, run_pafish};
use scarecrow::{Config, Scarecrow};
use winsim::env::{bare_metal_sandbox, end_user_machine, make_vm_sandbox_transparent, vm_sandbox};
use winsim::{Machine, ProcessCtx};

fn triggered(machine: Machine, engine: Option<&Scarecrow>) -> Vec<String> {
    let mut m = machine;
    let pid = harness::spawn_probe(&mut m, "pafish.exe", engine);
    let mut ctx = ProcessCtx::new(&mut m, pid);
    run_pafish(&mut ctx).triggered
}

#[test]
fn vm_sandbox_triggers_exactly_the_expected_checks() {
    let names = triggered(vm_sandbox(), None);
    let expected = [
        // CPU
        "cpu_rdtsc_diff_vmexit",
        "cpu_cpuid_hv_bit",
        "cpu_known_vm_vendors",
        // generic
        "gensb_mouse_activity",
        "gensb_drive_smaller_60gb",
        "gensb_path_sandbox",
        // hook (the Cuckoo monitor)
        "hooks_shellexecuteexw",
        // VirtualBox: everything except the tray window
        "vbox_guest_additions_reg",
        "vbox_acpi_dsdt",
        "vbox_system_bios",
        "vbox_video_bios",
        "vbox_file_vboxmouse",
        "vbox_file_vboxguest",
        "vbox_file_vboxsf",
        "vbox_file_vboxvideo",
        "vbox_svc_vboxguest",
        "vbox_svc_vboxmouse",
        "vbox_svc_vboxservice",
        "vbox_svc_vboxsf",
        "vbox_proc_vboxservice",
        "vbox_proc_vboxtray",
        "vbox_mac_prefix",
        "vbox_device_vboxguest",
    ];
    let mut expected: Vec<String> = expected.iter().map(|s| (*s).to_string()).collect();
    let mut got = names.clone();
    expected.sort();
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn bare_metal_triggers_only_the_mouse() {
    assert_eq!(triggered(bare_metal_sandbox(), None), vec!["gensb_mouse_activity".to_owned()]);
}

#[test]
fn end_user_triggers_noise_mouse_and_vmci() {
    let mut got = triggered(end_user_machine(), None);
    got.sort();
    assert_eq!(
        got,
        vec![
            "cpu_rdtsc_diff_vmexit".to_owned(),
            "gensb_mouse_activity".to_owned(),
            "vmware_device_vmci".to_owned(),
        ]
    );
}

#[test]
fn protected_environments_trigger_the_same_checks_outside_timing() {
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut vm = vm_sandbox();
    make_vm_sandbox_transparent(&mut vm);

    let strip_timing = |mut v: Vec<String>| {
        v.retain(|n| !n.starts_with("cpu_rdtsc"));
        v.sort();
        v
    };
    let bare = strip_timing(triggered(bare_metal_sandbox(), Some(&engine)));
    let vmx = strip_timing(triggered(vm, Some(&engine)));
    let user = strip_timing(triggered(end_user_machine(), Some(&engine)));
    assert_eq!(bare, vmx, "bare vs VM");
    assert_eq!(bare, user, "bare vs end-user");
    // the indistinguishable set includes the headline deceptions
    for check in [
        "debug_isdebuggerpresent",
        "hooks_inline_common_apis",
        "hooks_shellexecuteexw",
        "sandboxie_sbiedll",
        "wine_get_unix_file_name",
        "wine_reg_key",
        "vbox_guest_additions_reg",
        "vmware_tools_reg",
        "qemu_scsi_identifier",
        "bochs_bios_date",
        "gensb_nx_domain_resolves",
        "gensb_parent_not_explorer",
        "gensb_filename_is_hash",
        "gensb_username_sandbox",
    ] {
        assert!(bare.iter().any(|n| n == check), "missing {check}: {bare:?}");
    }
}

#[test]
fn never_triggering_checks_stay_silent_everywhere() {
    // checks that must not trigger in any of the six configurations
    let engine = Scarecrow::with_builtin_db(Config::default());
    let configurations: Vec<Vec<String>> = vec![
        triggered(bare_metal_sandbox(), None),
        triggered(vm_sandbox(), None),
        triggered(end_user_machine(), None),
        triggered(bare_metal_sandbox(), Some(&engine)),
        triggered(vm_sandbox(), Some(&engine)),
        triggered(end_user_machine(), Some(&engine)),
    ];
    for silent in [
        "gensb_is_native_vhd_boot", // Win8+ API, absent on Win7
        "gensb_one_cpu_peb",        // no preset has < 2 physical cores
        "cuckoo_pipe",
        "cuckoo_svc_cuckoomon",
        "cuckoo_agent_file",
        "bochs_cpuid_brand",
        "qemu_cpuid_kvm",
        "vbox_traytool_window",
    ] {
        for (i, names) in configurations.iter().enumerate() {
            assert!(!names.iter().any(|n| n == silent), "{silent} fired in configuration {i}");
        }
    }
}

#[test]
fn check_names_cover_eleven_categories() {
    use pafish_sim::PafishCategory;
    let checks = all_checks();
    for cat in PafishCategory::all() {
        assert!(checks.iter().any(|c| c.category == cat), "category {cat:?} has no checks");
    }
    // spot-check Table II feature totals survive refactors
    assert_eq!(checks.len(), 56);
}

#[test]
fn every_check_scarecrow_flips_is_deceivable() {
    // an answer Scarecrow changes must come from a probe its hooks can
    // reach; instruction and memory probes must never flip
    let engine = Scarecrow::with_builtin_db(Config::default());
    let checks = all_checks();
    let presets = [
        ("bare metal", bare_metal_sandbox as fn() -> Machine, 35),
        ("VM", vm_sandbox, 18),
        ("end user", end_user_machine, 34),
    ];
    for (preset, machine, expected_flips) in presets {
        let without = triggered(machine(), None);
        let with = triggered(machine(), Some(&engine));
        let flipped: Vec<_> = checks
            .iter()
            .filter(|c| without.iter().any(|n| n == c.name) != with.iter().any(|n| n == c.name))
            .collect();
        for check in &flipped {
            assert!(check.technique.deceivable(), "{preset}: {} flipped undeceivably", check.name);
        }
        assert_eq!(flipped.len(), expected_flips, "{preset}: {flipped:?}");
    }
}
