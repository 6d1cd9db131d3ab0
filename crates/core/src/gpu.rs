//! The OpenGL ES 2.0 backend: streams as textures, kernels as
//! full-screen passes, reductions as ping-pong ladders.

use crate::backend::{BackendExecutor, KernelLaunch};
use crate::error::{BrookError, Result};
use crate::stream::{layout_for, StreamDesc, StreamLayout};
use brook_codegen::{
    generate_ir_kernel_shader, names, reduce_pass_shader, KernelShapes, ReduceAxis, StorageMode, StreamRank,
};
use brook_lang::{CheckedProgram, ReduceOp};
use gles2_sim::{DeviceProfile, DrawMode, FramebufferId, Gl, ProgramId, TexFormat, TextureId, Value};
use perf_model::GpuRun;
use std::collections::HashMap;

pub(crate) struct GpuStream {
    pub desc: StreamDesc,
    pub layout: StreamLayout,
    pub tex: TextureId,
}

pub(crate) struct GpuState {
    pub gl: Gl,
    pub storage: StorageMode,
    pub streams: Vec<GpuStream>,
    fbo: FramebufferId,
    programs: HashMap<String, (ProgramId, brook_codegen::GeneratedShader)>,
    reduce_programs: HashMap<(ReduceOp, ReduceAxis), ProgramId>,
    mask_programs: HashMap<ReduceOp, ProgramId>,
    copy_program: Option<ProgramId>,
    pub readbacks: u64,
    pub dispatch_mode: DrawMode,
}

impl GpuState {
    pub fn new(profile: DeviceProfile) -> Self {
        let storage = if profile.float_textures && profile.float_render_targets {
            StorageMode::Native
        } else {
            StorageMode::Packed
        };
        let mut gl = Gl::new(profile);
        let fbo = gl.create_framebuffer();
        GpuState {
            gl,
            storage,
            streams: Vec::new(),
            fbo,
            programs: HashMap::new(),
            reduce_programs: HashMap::new(),
            mask_programs: HashMap::new(),
            copy_program: None,
            readbacks: 0,
            dispatch_mode: DrawMode::Full,
        }
    }

    /// Texel format for a stream of the given element width.
    fn format_for(&self, width: u8) -> TexFormat {
        match self.storage {
            StorageMode::Packed => TexFormat::Rgba8,
            StorageMode::Native if width == 1 => TexFormat::R32F,
            StorageMode::Native => TexFormat::Rgba32F,
        }
    }

    pub fn create_stream(&mut self, desc: StreamDesc) -> Result<usize> {
        if self.storage == StorageMode::Packed && desc.width > 1 {
            return Err(BrookError::Usage(format!(
                "this device stores streams in RGBA8 textures; float{} elements are not \
                 representable — use scalar streams (paper §6)",
                desc.width
            )));
        }
        let profile = self.gl.profile().clone();
        let layout = layout_for(&desc.shape, !profile.npot_textures, profile.max_texture_size)
            .map_err(BrookError::Usage)?;
        let tex = self
            .gl
            .create_texture(layout.alloc_w, layout.alloc_h, self.format_for(desc.width))?;
        self.streams.push(GpuStream { desc, layout, tex });
        Ok(self.streams.len() - 1)
    }

    fn to_texels(&self, values: &[f32], width: u8) -> Vec<[f32; 4]> {
        match self.storage {
            StorageMode::Packed => brook_numfmt::floats_to_texels(values),
            StorageMode::Native => values
                .chunks(width as usize)
                .map(|c| {
                    let mut t = [0.0f32; 4];
                    t[..c.len()].copy_from_slice(c);
                    t
                })
                .collect(),
        }
    }

    fn decode_texels(&self, texels: &[[f32; 4]], width: u8) -> Vec<f32> {
        match self.storage {
            StorageMode::Packed => brook_numfmt::texels_to_floats(texels),
            StorageMode::Native => texels.iter().flat_map(|t| t[..width as usize].to_vec()).collect(),
        }
    }

    pub fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()> {
        let (tex, layout, width, len) = {
            let s = &self.streams[index];
            (s.tex, s.layout.clone(), s.desc.width, s.desc.len())
        };
        if values.len() != len * width as usize {
            return Err(BrookError::Usage(format!(
                "stream expects {} values, got {}",
                len * width as usize,
                values.len()
            )));
        }
        let texels = self.to_texels(values, width);
        match layout.rank {
            StreamRank::Grid => {
                let (cols, rows) = (layout.logical_x, layout.logical_y);
                self.gl.upload_texture_sub(tex, 0, 0, cols, rows, &texels)?;
            }
            StreamRank::Linear => {
                let stride = layout.alloc_w as usize;
                let full_rows = texels.len() / stride;
                let tail = texels.len() % stride;
                if full_rows > 0 {
                    self.gl.upload_texture_sub(
                        tex,
                        0,
                        0,
                        stride as u32,
                        full_rows as u32,
                        &texels[..full_rows * stride],
                    )?;
                }
                if tail > 0 {
                    self.gl.upload_texture_sub(
                        tex,
                        0,
                        full_rows as u32,
                        tail as u32,
                        1,
                        &texels[full_rows * stride..],
                    )?;
                }
            }
        }
        Ok(())
    }

    pub fn read_stream(&mut self, index: usize) -> Result<Vec<f32>> {
        let (tex, layout, width, len) = {
            let s = &self.streams[index];
            (s.tex, s.layout.clone(), s.desc.width, s.desc.len())
        };
        self.gl.attach_texture(self.fbo, tex)?;
        self.gl.bind_framebuffer(self.fbo)?;
        self.readbacks += 1;
        let texels = match layout.rank {
            StreamRank::Grid => self
                .gl
                .read_pixels_region(0, 0, layout.logical_x, layout.logical_y)?,
            StreamRank::Linear => {
                let stride = layout.alloc_w as usize;
                let full_rows = len / stride;
                let tail = len % stride;
                let mut t = if full_rows > 0 {
                    self.gl
                        .read_pixels_region(0, 0, stride as u32, full_rows as u32)?
                } else {
                    Vec::new()
                };
                if tail > 0 {
                    t.extend(self.gl.read_pixels_region(0, full_rows as u32, tail as u32, 1)?);
                }
                t
            }
        };
        Ok(self.decode_texels(&texels, width))
    }

    /// Builds the shape-class table for a dispatch from actual layouts.
    fn shapes_for(&self, params: &[(String, Option<usize>)]) -> KernelShapes {
        let mut shapes = KernelShapes::default();
        for (name, stream_idx) in params {
            if let Some(i) = stream_idx {
                shapes.ranks.insert(name.clone(), self.streams[*i].layout.rank);
            }
        }
        shapes
    }

    /// Marks gather parameters whose clamp the shader may skip for this
    /// dispatch: every gather on the parameter carries an
    /// analyzer-proven range and the proof fits the bound stream's
    /// logical shape under this launch domain
    /// ([`brook_ir::eval::proven_fits_dyn`] — the same launch-time
    /// check the CPU engines perform per block).
    fn elidable_gathers(
        &self,
        ir: &brook_ir::IrProgram,
        kernel: &str,
        output: &str,
        stream_args: &[(String, Option<usize>)],
        shapes: &mut KernelShapes,
    ) {
        let Some(k) = ir.kernel(kernel) else { return };
        let stream_of = |name: &str| stream_args.iter().find(|(n, _)| n == name).and_then(|(_, i)| *i);
        let Some(out_idx) = stream_of(output) else { return };
        let dshape = &self.streams[out_idx].desc.shape;
        let (dx, dy, linear) = brook_ir::interp::domain_extents(dshape);
        let comp_max = brook_ir::eval::indexof_comp_max((dx, dy), linear);
        for (pi, p) in k.params.iter().enumerate() {
            if !matches!(p.kind, brook_lang::ast::ParamKind::Gather { .. }) {
                continue;
            }
            let Some(si) = stream_of(&p.name) else { continue };
            let pshape = &self.streams[si].desc.shape;
            let mut gathers = k.insts.iter().filter_map(|inst| match inst {
                brook_ir::Inst::Gather { param, proven, .. } if *param as usize == pi => Some(proven),
                _ => None,
            });
            let mut any = false;
            let all_fit = gathers.all(|pr| {
                any = true;
                pr.as_ref()
                    .is_some_and(|p| brook_ir::eval::proven_fits_dyn(p, pshape, comp_max))
            });
            if any && all_fit {
                shapes.elide_gathers.insert(p.name.clone());
            }
        }
    }

    /// Runs one pass of `kernel` writing `output`.
    ///
    /// `stream_args`: (param name, stream index) for every stream/gather
    /// param including outputs; `scalar_args`: (param name, value).
    pub fn run_pass(
        &mut self,
        ir: &brook_ir::IrProgram,
        module_key: u64,
        kernel: &str,
        output: &str,
        stream_args: &[(String, Option<usize>)],
        scalar_args: &[(String, Value)],
    ) -> Result<()> {
        let mut shapes = self.shapes_for(stream_args);
        self.elidable_gathers(ir, kernel, output, stream_args, &mut shapes);
        let mut key = format!("{module_key}:{kernel}:{output}:{:?}", self.storage);
        let mut rank_names: Vec<_> = shapes.ranks.iter().collect();
        rank_names.sort();
        for (n, r) in rank_names {
            key.push_str(&format!(":{n}={r:?}"));
        }
        for n in &shapes.elide_gathers {
            key.push_str(&format!(":elide={n}"));
        }
        let (program, generated) = match self.programs.get(&key) {
            Some(entry) => entry.clone(),
            None => {
                // GLSL comes from the optimized, re-certified BrookIR.
                // The cache entry is inserted only once both generation
                // and program creation succeed, so a failed compile
                // leaves no trace and a corrected module under the same
                // key compiles fresh.
                let generated = generate_ir_kernel_shader(ir, kernel, output, &shapes, self.storage)?;
                let p = self.gl.create_program(&generated.glsl)?;
                self.programs.insert(key.clone(), (p, generated.clone()));
                (p, generated)
            }
        };
        self.gl.use_program(program)?;
        let stream_of = |name: &str| -> Result<usize> {
            stream_args
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, i)| *i)
                .ok_or_else(|| BrookError::Usage(format!("parameter `{name}` is not bound to a stream")))
        };
        // Texture units in sampler order.
        for (unit, name) in generated.samplers.iter().enumerate() {
            let idx = stream_of(name)?;
            let out_idx = stream_of(output)?;
            if idx == out_idx {
                return Err(BrookError::Usage(format!(
                    "stream bound to `{name}` is also the output `{output}`: Brook kernels \
                     cannot read their own output (use ping-pong streams)"
                )));
            }
            self.gl.bind_texture(unit as u32, self.streams[idx].tex)?;
            self.gl
                .set_uniform(program, &names::tex_uniform(name), Value::Int(unit as i32))?;
        }
        for name in &generated.metas {
            let idx = stream_of(name)?;
            let m = self.streams[idx].layout.meta();
            self.gl
                .set_uniform(program, &names::meta_uniform(name), Value::Vec4(m))?;
        }
        for name in &generated.shapes_needed {
            let idx = stream_of(name)?;
            let shape = &self.streams[idx].desc.shape;
            let mut s = [1.0f32; 4];
            for (i, d) in shape.iter().enumerate() {
                s[i] = *d as f32;
            }
            self.gl
                .set_uniform(program, &names::shape_uniform(name), Value::Vec4(s))?;
        }
        for (name, value) in scalar_args {
            self.gl
                .set_uniform(program, &names::scalar_uniform(name), *value)?;
        }
        let out_idx = stream_of(output)?;
        let (vw, vh) = self.streams[out_idx].layout.viewport;
        self.gl.set_uniform(
            program,
            names::VIEWPORT_UNIFORM,
            Value::Vec2([vw as f32, vh as f32]),
        )?;
        self.gl.attach_texture(self.fbo, self.streams[out_idx].tex)?;
        self.gl.bind_framebuffer(self.fbo)?;
        self.gl.viewport(vw, vh);
        self.gl.draw_fullscreen_quad(self.dispatch_mode)?;
        Ok(())
    }

    /// Multi-pass reduction of a stream to a single scalar (paper §5.5).
    pub fn reduce_stream(&mut self, op: ReduceOp, input: usize) -> Result<f32> {
        let (in_tex, layout, len) = {
            let s = &self.streams[input];
            (s.tex, s.layout.clone(), s.desc.len())
        };
        let (aw, ah) = (layout.alloc_w, layout.alloc_h);
        // Ping-pong intermediates, reused across passes (paper §5.5: "the
        // same textures are reused for the reduction steps").
        let ping = self.gl.create_texture(aw, ah, self.format_for(1))?;
        let pong = match self.gl.create_texture(aw, ah, self.format_for(1)) {
            Ok(t) => t,
            Err(e) => {
                self.gl.delete_texture(ping);
                return Err(e.into());
            }
        };
        // The ladder runs in a helper so every `?` exit still releases
        // the intermediates — a long-running host would otherwise leak
        // device memory (and budget headroom) on each failed reduce.
        let result = self.reduce_ladder(op, in_tex, &layout, len, ping, pong);
        self.gl.delete_texture(ping);
        self.gl.delete_texture(pong);
        result
    }

    /// The reduction passes proper; intermediates are owned (and always
    /// released) by `reduce_stream`.
    fn reduce_ladder(
        &mut self,
        op: ReduceOp,
        in_tex: TextureId,
        layout: &StreamLayout,
        len: usize,
        ping: TextureId,
        pong: TextureId,
    ) -> Result<f32> {
        let (aw, ah) = (layout.alloc_w, layout.alloc_h);
        // Pass 0: masked copy establishing a rectangular extent with
        // identity padding (needed for linear streams whose tail row is
        // partial).
        let (mut w, mut h) = match layout.rank {
            StreamRank::Grid => (layout.logical_x, layout.logical_y),
            StreamRank::Linear => (layout.alloc_w.min(len as u32), layout.logical_y),
        };
        let needs_mask = layout.rank == StreamRank::Linear
            && !(len as u32).is_multiple_of(layout.alloc_w)
            && layout.logical_y > 1;
        let copy_prog = if needs_mask {
            self.mask_program(op)?
        } else {
            self.copy_program()?
        };
        self.gl.use_program(copy_prog)?;
        self.gl.bind_texture(0, in_tex)?;
        self.gl.set_uniform(copy_prog, "_tex_src", Value::Int(0))?;
        self.gl
            .set_uniform(copy_prog, "_meta_src", Value::Vec4(layout.meta()))?;
        if needs_mask {
            w = layout.alloc_w;
            self.gl
                .set_uniform(copy_prog, "_p_len", Value::Float(len as f32))?;
        }
        self.gl.set_uniform(
            copy_prog,
            names::VIEWPORT_UNIFORM,
            Value::Vec2([w as f32, h as f32]),
        )?;
        self.gl.attach_texture(self.fbo, ping)?;
        self.gl.bind_framebuffer(self.fbo)?;
        self.gl.viewport(w, h);
        self.gl.draw_fullscreen_quad(self.dispatch_mode)?;
        let mut current = ping;
        let mut other = pong;
        // X ladder then Y ladder.
        for axis in [ReduceAxis::X, ReduceAxis::Y] {
            loop {
                let cur = match axis {
                    ReduceAxis::X => w,
                    ReduceAxis::Y => h,
                };
                if cur <= 1 {
                    break;
                }
                let next = cur.div_ceil(2);
                let (nw, nh) = match axis {
                    ReduceAxis::X => (next, h),
                    ReduceAxis::Y => (w, next),
                };
                let prog = self.reduce_program(op, axis)?;
                self.gl.use_program(prog)?;
                self.gl.bind_texture(0, current)?;
                self.gl.set_uniform(prog, "_tex_src", Value::Int(0))?;
                self.gl.set_uniform(
                    prog,
                    "_meta_src",
                    Value::Vec4([aw as f32, ah as f32, w as f32, h as f32]),
                )?;
                self.gl
                    .set_uniform(prog, names::VIEWPORT_UNIFORM, Value::Vec2([nw as f32, nh as f32]))?;
                self.gl.attach_texture(self.fbo, other)?;
                self.gl.bind_framebuffer(self.fbo)?;
                self.gl.viewport(nw, nh);
                self.gl.draw_fullscreen_quad(self.dispatch_mode)?;
                std::mem::swap(&mut current, &mut other);
                match axis {
                    ReduceAxis::X => w = next,
                    ReduceAxis::Y => h = next,
                }
            }
        }
        // Read the single remaining element.
        self.gl.attach_texture(self.fbo, current)?;
        self.gl.bind_framebuffer(self.fbo)?;
        self.readbacks += 1;
        let texel = self.gl.read_pixels_region(0, 0, 1, 1)?;
        Ok(self.decode_texels(&texel, 1)[0])
    }

    fn reduce_program(&mut self, op: ReduceOp, axis: ReduceAxis) -> Result<ProgramId> {
        if let Some(p) = self.reduce_programs.get(&(op, axis)) {
            return Ok(*p);
        }
        let src = reduce_pass_shader(op, axis, self.storage);
        let p = self.gl.create_program(&src)?;
        self.reduce_programs.insert((op, axis), p);
        Ok(p)
    }

    /// Raw channel-preserving copy (no decode/encode needed: texel bits
    /// pass through untouched).
    fn copy_program(&mut self) -> Result<ProgramId> {
        if let Some(p) = self.copy_program {
            return Ok(p);
        }
        let src = format!(
            "precision highp float;\nvarying vec2 v_texcoord;\nuniform vec2 {vp};\n\
             uniform sampler2D _tex_src;\nuniform vec4 _meta_src;\n\
             void main() {{\n    vec2 _pc = floor(v_texcoord * {vp});\n    \
             gl_FragColor = texture2D(_tex_src, (_pc + 0.5) / _meta_src.xy);\n}}\n",
            vp = names::VIEWPORT_UNIFORM
        );
        let p = self.gl.create_program(&src)?;
        self.copy_program = Some(p);
        Ok(p)
    }

    /// Copy with identity masking beyond the logical length (linear
    /// streams with a partial tail row).
    fn mask_program(&mut self, op: ReduceOp) -> Result<ProgramId> {
        if let Some(p) = self.mask_programs.get(&op) {
            return Ok(*p);
        }
        let identity = match op {
            ReduceOp::Add => "0.0",
            ReduceOp::Mul => "1.0",
            ReduceOp::Min => "3.0e38",
            ReduceOp::Max => "-3.0e38",
        };
        let encode_identity = match self.storage {
            StorageMode::Packed => {
                format!("{}{}", brook_numfmt::GLSL_ENCODE, "")
            }
            StorageMode::Native => String::new(),
        };
        let identity_expr = match self.storage {
            StorageMode::Packed => format!("ba_encode({identity})"),
            StorageMode::Native => format!("vec4({identity}, 0.0, 0.0, 0.0)"),
        };
        let src = format!(
            "precision highp float;\nvarying vec2 v_texcoord;\nuniform vec2 {vp};\n\
             uniform sampler2D _tex_src;\nuniform vec4 _meta_src;\nuniform float _p_len;\n{encode_identity}\
             void main() {{\n    vec2 _pc = floor(v_texcoord * {vp});\n    \
             float _l = _pc.y * {vp}.x + _pc.x;\n    \
             vec4 _v = texture2D(_tex_src, (_pc + 0.5) / _meta_src.xy);\n    \
             gl_FragColor = (_l < _p_len) ? _v : {identity_expr};\n}}\n",
            vp = names::VIEWPORT_UNIFORM
        );
        let p = self.gl.create_program(&src)?;
        self.mask_programs.insert(op, p);
        Ok(p)
    }
}

impl BackendExecutor for GpuState {
    fn name(&self) -> &'static str {
        match self.storage {
            StorageMode::Native => "gles2-native",
            StorageMode::Packed => "gles2-packed",
        }
    }

    fn create_stream(&mut self, desc: crate::stream::StreamDesc) -> Result<usize> {
        GpuState::create_stream(self, desc)
    }

    fn stream_desc(&self, index: usize) -> &crate::stream::StreamDesc {
        &self.streams[index].desc
    }

    fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()> {
        GpuState::write_stream(self, index, values)
    }

    fn read_stream(&mut self, index: usize) -> Result<Vec<f32>> {
        GpuState::read_stream(self, index)
    }

    fn dispatch(&mut self, launch: &KernelLaunch<'_>) -> Result<()> {
        // Multi-output kernels execute one pass per output — the kernel
        // splitting of paper §6 (core GL ES 2.0 has a single render
        // target).
        let stream_args = launch.stream_args();
        let scalar_args = launch.scalar_args();
        for (out_name, _) in &launch.outputs {
            self.run_pass(
                launch.ir,
                launch.module_id,
                launch.kernel,
                out_name,
                &stream_args,
                &scalar_args,
            )?;
        }
        Ok(())
    }

    fn reduce(
        &mut self,
        _checked: &CheckedProgram,
        _ir: &brook_ir::IrProgram,
        _kernel: &str,
        op: ReduceOp,
        _simd: Option<&brook_ir::simd::ReduceKernel>,
        input: usize,
    ) -> Result<f32> {
        // The ladder implements the *canonical* operation certification
        // extracted from the kernel body (paper §5.5); the body itself is
        // not re-interpreted on the GPU.
        self.reduce_stream(op, input)
    }

    fn set_dispatch_mode(&mut self, mode: DrawMode) {
        self.dispatch_mode = mode;
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.gl.set_vram_budget(bytes);
    }

    fn set_device_lost(&mut self, lost: bool) {
        if lost {
            self.gl.lose_context();
        } else {
            self.gl.restore_context();
        }
    }

    fn counters(&self) -> GpuRun {
        let s = self.gl.stats();
        GpuRun {
            alu_ops: s.alu_ops,
            tex_fetches: s.tex_fetches,
            fragments: s.fragments_shaded,
            draw_calls: s.draw_calls,
            readbacks: self.readbacks,
            bytes_uploaded: s.bytes_uploaded,
            bytes_downloaded: s.bytes_downloaded,
        }
    }

    fn reset_counters(&mut self) {
        self.gl.reset_stats();
        self.readbacks = 0;
    }

    fn memory_used(&self) -> usize {
        self.gl.vram_used()
    }

    fn memory_peak(&self) -> usize {
        self.gl.vram_peak()
    }
}
