//! Property tests: the xl config parser round-trips every config the
//! serialiser can produce and never panics on arbitrary input. Driven by
//! a seeded `SimRng` (offline build: no proptest).

use simcore::SimRng;
use toolstack::VmConfig;

fn pick(rng: &mut SimRng, alphabet: &[u8]) -> char {
    alphabet[rng.index(alphabet.len())] as char
}

fn random_str(rng: &mut SimRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = min + rng.index(max - min + 1);
    (0..len).map(|_| pick(rng, alphabet)).collect()
}

const NAME_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
const PATH_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-";
const VIF_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=.:/";
const DISK_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=.:/,";

fn random_config(rng: &mut SimRng) -> VmConfig {
    VmConfig {
        name: random_str(rng, NAME_CHARS, 1, 24),
        kernel: random_str(rng, PATH_CHARS, 1, 40),
        memory_mib: 1 + rng.index(65535) as u64,
        vcpus: 1 + rng.index(7) as u32,
        vifs: (0..rng.index(3))
            .map(|_| random_str(rng, VIF_CHARS, 1, 30))
            .collect(),
        disks: (0..rng.index(3))
            .map(|_| random_str(rng, DISK_CHARS, 1, 30))
            .collect(),
    }
}

#[test]
fn round_trip() {
    let mut rng = SimRng::new(0xCF61);
    for _case in 0..256 {
        let cfg = random_config(&mut rng);
        let text = cfg.to_text();
        let parsed = VmConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
    }
}

#[test]
fn parser_never_panics() {
    let mut rng = SimRng::new(0xCF62);
    // Printable ASCII plus some multi-byte chars to stress slicing.
    let alphabet: Vec<char> = (0x20u8..0x7f)
        .map(|b| b as char)
        .chain(['é', '→', '\u{1F600}', 'ä', '\t'])
        .collect();
    for _case in 0..256 {
        let len = rng.index(400);
        let text: String = (0..len)
            .map(|_| alphabet[rng.index(alphabet.len())])
            .collect();
        let _ = VmConfig::parse(&text);
    }
}

/// Random lines built from the config's own tokens — real and random
/// keys, quoted strings, lists, huge and negative numbers, stray bytes —
/// must parse or return a `ConfigError`, never panic.
#[test]
fn parser_never_panics_liney() {
    let mut rng = SimRng::new(0xCF63);
    const KEYS: &[&str] = &["name", "kernel", "memory", "vcpus", "vif", "disk"];
    const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const VAL_TOKENS: &[&str] = &[
        "\"", "[", "]", ",", " ", "\"x\"", "\"/images/daytime.bin\"", "\"bridge=xenbr0\"",
        "0", "16", "4294967296", "17592186044416", "18446744073709551616", "-1", "é", "#", "=",
    ];
    const VAL_CHARS: &[u8] = b"\"[]abcdefghijklmnopqrstuvwxyz0123456789 ,";
    for _case in 0..512 {
        let lines: Vec<String> = (0..rng.index(10))
            .map(|_| {
                let key = if rng.chance(0.6) {
                    KEYS[rng.index(KEYS.len())].to_string()
                } else {
                    random_str(&mut rng, KEY_CHARS, 0, 8)
                };
                let eq = if rng.chance(0.5) { " = " } else { "=" };
                let val: String = (0..rng.index(5))
                    .map(|_| {
                        if rng.chance(0.7) {
                            VAL_TOKENS[rng.index(VAL_TOKENS.len())].to_string()
                        } else {
                            random_str(&mut rng, VAL_CHARS, 0, 6)
                        }
                    })
                    .collect();
                if rng.chance(0.1) {
                    key
                } else {
                    format!("{key}{eq}{val}")
                }
            })
            .collect();
        let _ = VmConfig::parse(&lines.join("\n"));
    }
}
