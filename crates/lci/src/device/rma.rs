//! One-sided RMA (paper §3.2.4, Table 1): put and get, each optionally
//! signaling a completion object on the target. A put's signal rides its
//! write as an immediate; a get's signal is a control message sent once
//! the read has completed (the extension the paper leaves unimplemented;
//! see the `proto` module docs).

use super::{CommArgs, Device, DeviceInner, OpCtx};
use crate::comp::Comp;
use crate::error::{FatalError, PostResult, Result};
use crate::proto::{Header, MsgType};
use crate::types::{
    CompDesc, CompKind, DataBuf, Landing, MatchingPolicy, RComp, Rank, SendBuf, Tag,
    SENDBUF_INLINE_CAP,
};
use lci_fabric::{DevId, NetError, NetResult, PoolBuf, RecvBufDesc};

/// The bytes of a put's source at an address that stays put while the
/// [`SendBuf`] itself moves into its [`OpCtx`] slot, so the fabric can
/// write straight from the buffer the operation owns until `WriteDone`
/// — no restaging copy. (An eager send needs none of this: it is done
/// with its buffer at the post.)
enum PostSrc {
    /// `SendBuf::Inline` bytes live inside the enum and move with it:
    /// the ≤ 24 B are copied to the poster's stack.
    Stack([u8; SENDBUF_INLINE_CAP], u8),
    /// Heap, packet or pool storage the `SendBuf` only points at.
    Stable(*const u8, usize),
    /// A multi-segment iovec, gathered (the one staging copy left).
    Gathered(PoolBuf),
}

impl PostSrc {
    fn of(dev: &DeviceInner, buf: &SendBuf) -> PostSrc {
        match (buf, buf.as_contiguous()) {
            (SendBuf::Inline(bytes, len), _) => PostSrc::Stack(*bytes, *len),
            (_, Some(data)) => PostSrc::Stable(data.as_ptr(), data.len()),
            (_, None) => PostSrc::Gathered(dev.stage_payload(buf, 0..buf.len())),
        }
    }

    /// # Safety
    /// The `SendBuf` this was taken from must still be alive and
    /// unmodified: it may have moved (into an `OpCtx` the fabric has not
    /// completed), but not been handed back to the user or dropped.
    unsafe fn bytes(&self) -> &[u8] {
        match self {
            PostSrc::Stack(bytes, len) => &bytes[..*len as usize],
            // SAFETY: per the contract above, the pointee outlives `self`.
            PostSrc::Stable(ptr, len) => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            PostSrc::Gathered(buf) => buf,
        }
    }
}

/// The local completion of a get: what [`OpCtx::Get`] carries.
pub(super) struct GetOp {
    comp: Option<Comp>,
    buf: Box<[u8]>,
    rank: Rank,
    tag: Tag,
    user_ctx: u64,
    signal: Option<(DevId, RComp)>,
}

impl Device {
    /// RMA put (direct write, optional remote signal).
    pub(super) fn post_put_impl(&self, args: &mut CommArgs) -> Result<PostResult> {
        let buf = args
            .send_buf
            .take()
            .ok_or_else(|| FatalError::InvalidArg("put requires a local buffer".into()))?;
        let (rkey, offset) = args.remote_buf.unwrap();
        let target_dev = args.target_dev.unwrap_or_else(|| self.dev_id());
        let imm = args
            .remote_comp
            .map(|rc| Header::new(MsgType::PutSignal, args.policy, args.tag, rc).encode());
        let src = PostSrc::of(&self.inner, &buf);
        let ctx = self.inner.ctx_encode(OpCtx::Send {
            comp: args.comp.take(),
            buf,
            rank: args.rank,
            tag: args.tag,
            user_ctx: args.user_ctx,
            kind: CompKind::Put,
        });
        // SAFETY: the buffer sits in the context just encoded, which is
        // decoded only below (rejected post) or at `WriteDone`.
        let data = unsafe { src.bytes() };
        let res = self.inner.net.post_write(args.rank, target_dev, data, rkey, offset, imm, ctx);
        self.posted_or_back_out(res, ctx)
    }

    /// RMA get (direct read, optional remote signal).
    pub(super) fn post_get_impl(&self, args: &mut CommArgs) -> Result<PostResult> {
        let Some(Landing::Owned(buf)) = args.recv_buf.take() else {
            return Err(FatalError::InvalidArg("get requires a local buffer it owns".into()));
        };
        let (rkey, offset) = args.remote_buf.unwrap();
        let target_dev = args.target_dev.unwrap_or_else(|| self.dev_id());
        let signal = args.remote_comp.map(|rc| (target_dev, rc));
        let len = buf.len();
        let ptr = buf.as_ptr() as *mut u8;
        let ctx = self.inner.ctx_encode(OpCtx::Get(GetOp {
            comp: args.comp.take(),
            buf,
            rank: args.rank,
            tag: args.tag,
            user_ctx: args.user_ctx,
            signal,
        }));
        // SAFETY: the buffer lives in the OpCtx until the ReadDone
        // completion, satisfying the descriptor contract.
        let desc = unsafe { RecvBufDesc::new(ptr, len, ctx) };
        let res = self.inner.net.post_read(args.rank, desc, rkey, offset);
        self.posted_or_back_out(res, ctx)
    }

    /// Maps the fabric's answer to an RMA post (a put or a get). A
    /// rejected post never handed its context over,
    /// so the context is reclaimed here.
    pub(super) fn posted_or_back_out(&self, res: NetResult<()>, ctx: u64) -> Result<PostResult> {
        let Err(e) = res else { return Ok(PostResult::Posted) };
        let _op = self.inner.ctx_decode(ctx)?;
        match e {
            NetError::Retry(r) => Ok(PostResult::Retry(r.into())),
            NetError::Fatal(m) => Err(FatalError::Net(m)),
        }
    }

    /// A get's read completed: notify the target if asked to, then
    /// signal the local completion with the filled buffer.
    pub(super) fn get_done(&self, op: GetOp) -> Result<()> {
        let GetOp { comp, buf, rank, tag, user_ctx, signal } = op;
        if let Some((target_dev, rcomp)) = signal {
            let imm = Header::new(MsgType::GetSignal, MatchingPolicy::RankTag, tag, rcomp).encode();
            self.send_ctrl(rank, target_dev, &[], imm)?;
        }
        if let Some(comp) = comp {
            comp.signal(CompDesc {
                rank,
                tag,
                data: DataBuf::Owned(buf),
                user_ctx,
                kind: CompKind::Get,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Runtime, RuntimeConfig};

    /// An inline payload is posted from `PostSrc`'s own copy, never from
    /// an address inside the `SendBuf` that is about to move into its
    /// context (the stale stack bytes of a pointer taken before the move
    /// usually stay readable, so no end-to-end test sees that mutant);
    /// out-of-line storage is posted from where it is.
    #[test]
    fn post_src_survives_the_send_buf_moving() {
        let rt = Runtime::new(Fabric::new(1), 0, RuntimeConfig::small()).unwrap();
        let dev = &rt.device().inner;
        let inside = |buf: &SendBuf, p: *const u8| {
            let base = buf as *const SendBuf as usize;
            (base..base + std::mem::size_of::<SendBuf>()).contains(&(p as usize))
        };

        let inline = SendBuf::from(&b"twenty-four inline bytes"[..]);
        assert!(matches!(inline, SendBuf::Inline(..)));
        let src = PostSrc::of(dev, &inline);
        // SAFETY: `inline` is alive here and in its box below.
        assert!(!inside(&inline, unsafe { src.bytes() }.as_ptr()), "posts from inside the enum");
        let moved = Box::new(inline);
        assert_eq!(unsafe { src.bytes() }, moved.as_contiguous().unwrap());

        let owned = SendBuf::from(vec![7u8; 100]);
        let at = owned.as_contiguous().unwrap().as_ptr();
        let src = PostSrc::of(dev, &owned);
        let moved = Box::new(owned);
        // SAFETY: `owned` lives on in its box.
        assert_eq!(unsafe { src.bytes() }.as_ptr(), at, "restaged a contiguous buffer");
        assert_eq!(unsafe { src.bytes() }, moved.as_contiguous().unwrap());
    }
}
