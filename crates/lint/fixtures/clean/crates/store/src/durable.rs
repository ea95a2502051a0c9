//! Fixture: the flush path in the docs/STORE.md contract order —
//! write → fsync → rename → dir-fsync, and GC strictly after the
//! manifest commit.

fn write_sst(dir: &str, data: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create("001.sst.tmp")?;
    file.write_all(data)?;
    file.sync_data()?;
    std::fs::rename("001.sst.tmp", "001.sst")?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

pub fn flush(store: &mut Store, dir: &str, data: &[u8]) -> std::io::Result<()> {
    write_sst(dir, data)?;
    store.crash.fire(CrashPoint::AfterSstWrite);
    store.manifest.commit("001.sst")?;
    store.crash.fire(CrashPoint::AfterCommit);
    std::fs::remove_file("000.sst")?;
    Ok(())
}
